#include "sim/memory.hh"

#include <algorithm>

#include "common/errors.hh"

namespace rm {

using detail::memoryMix;

namespace {

/** A fresh table's size: room for 32 stored words before it grows. */
constexpr int kInitialLog2Slots = 6;

} // namespace

GlobalMemory::GlobalMemory(int log2_words, std::uint64_t seed)
    : log2(log2_words), seedValue(seed)
{
    fatalIf(log2_words < 4 || log2_words > 28,
            "GlobalMemory: log2_words (", log2_words,
            ") out of supported range [4, 28]");
    mask = (std::uint64_t{1} << log2_words) - 1;
    seedMix = seed * 0x9e3779b9ULL;
    reset();
}

void
GlobalMemory::clearTable(int log2_slots)
{
    slots.assign(std::size_t{1} << log2_slots, Word{kEmpty, 0});
    slotMask = slots.size() - 1;
    shift = 64 - log2_slots;
    used = 0;
}

void
GlobalMemory::reset()
{
    clearTable(kInitialLog2Slots);
}

void
GlobalMemory::insert(std::uint64_t index, std::int64_t value)
{
    if (2 * (used + 1) > slots.size()) {
        const std::vector<Word> old = std::move(slots);
        const int log2_slots = 64 - shift;
        clearTable(log2_slots + 1);
        for (const Word &w : old) {
            if (w.index != kEmpty)
                place(w);
        }
    }
    place(Word{index, value});
}

void
GlobalMemory::place(const Word &word)
{
    std::size_t s = home(word.index);
    while (slots[s].index != kEmpty)
        s = (s + 1) & slotMask;
    slots[s] = word;
    ++used;
}

std::uint64_t
GlobalMemory::digest() const
{
    // The pristine words' share of a full walk is a function of (seed,
    // log2) alone, so a constant of the two stands in for it.
    std::uint64_t h = 0x2545f4914f6cdd1dULL ^
                      memoryMix(seedMix + static_cast<std::uint64_t>(log2));
    for (const Word &w : slots) {
        if (w.index == kEmpty)
            continue;
        h ^= memoryMix(static_cast<std::uint64_t>(w.value) + w.index) ^
             memoryMix(static_cast<std::uint64_t>(initialWord(w.index)) +
                       w.index);
    }
    return h;
}

std::vector<GlobalMemory::Word>
GlobalMemory::changedWords() const
{
    std::vector<Word> changed;
    for (const Word &w : slots) {
        if (w.index != kEmpty && w.value != initialWord(w.index))
            changed.push_back(w);
    }
    std::sort(changed.begin(), changed.end(),
              [](const Word &a, const Word &b) { return a.index < b.index; });
    return changed;
}

SharedMemory::SharedMemory(int bytes)
{
    const std::size_t n = bytes <= 8 ? 1 : static_cast<std::size_t>(bytes) / 8;
    words.assign(n, 0);
}

std::uint64_t
SharedMemory::digest() const
{
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (std::size_t i = 0; i < words.size(); ++i)
        h ^= memoryMix(static_cast<std::uint64_t>(words[i]) + i * 31);
    return h;
}

} // namespace rm
