#ifndef RM_SIM_MEMORY_HH
#define RM_SIM_MEMORY_HH

/**
 * @file
 * Synthetic functional memories. Global memory is a deterministic,
 * store-consistent word array with pseudo-random initial contents
 * (substituting the benchmark input data the paper's workloads read).
 * It is kept as a write-set: a word's initial value is a hash of its
 * index, computed on load, and only stored words live in a flat
 * open-addressing table. Construction, reset, snapshot save/restore
 * and the digest therefore cost what a kernel wrote, not the 2^log2
 * words the memory spans. Shared memory is a small per-CTA
 * scratchpad. Both wrap addresses, so any address computed by a kernel
 * is valid and deterministic.
 */

#include <cstdint>
#include <vector>

namespace rm {

namespace detail {

/** murmur3's 64-bit finalizer: the memories' content and digest hash. */
inline std::uint64_t
memoryMix(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
}

} // namespace detail

/**
 * 64-bit-word global memory of power-of-two size. Initial contents are
 * a fixed hash of the word index and seed, so data-dependent control
 * flow in the synthetic workloads is reproducible. Stored words sit in
 * a linear-probing table (power-of-two capacity, grown at half load,
 * never erased) keyed by word index.
 */
class GlobalMemory
{
  public:
    /** One stored word. */
    struct Word
    {
        std::uint64_t index;
        std::int64_t value;
    };

    /** @param log2_words size as a power of two (default 1 Mi words). */
    explicit GlobalMemory(int log2_words = 20, std::uint64_t seed = 1);

    // Inline: one load/store per global-memory instruction interpreted.
    std::int64_t load(std::uint64_t addr) const
    {
        const std::uint64_t index = addr & mask;
        for (std::size_t s = home(index);; s = (s + 1) & slotMask) {
            if (slots[s].index == index)
                return slots[s].value;
            if (slots[s].index == kEmpty)
                return initialWord(index);
        }
    }
    void store(std::uint64_t addr, std::int64_t value)
    {
        const std::uint64_t index = addr & mask;
        std::size_t s = home(index);
        for (; slots[s].index != kEmpty; s = (s + 1) & slotMask) {
            if (slots[s].index == index) {
                slots[s].value = value;
                return;
            }
        }
        insert(index, value);
    }

    /** Forget every store: the contents are pristine again. */
    void reset();

    std::size_t sizeWords() const
    {
        return static_cast<std::size_t>(mask) + 1;
    }

    /**
     * Order-insensitive digest of the full contents (for equivalence
     * tests): a constant of (seed, log2) XOR, over every stored word i
     * holding v, mix(v + i) ^ mix(initialWord(i) + i). Two memories of
     * one geometry and seed digest equal exactly when a full walk
     * XOR-ing mix(word + i) over all words would.
     */
    std::uint64_t digest() const;

    /** Construction parameters (snapshots rebuild + replay a diff). */
    int log2Words() const { return log2; }
    std::uint64_t seed() const { return seedValue; }

    /** Pristine contents of word @p index. */
    std::int64_t initialWord(std::size_t index) const
    {
        return static_cast<std::int64_t>(
            detail::memoryMix(index ^ seedMix));
    }

    /**
     * The words whose value differs from their initial one, by
     * ascending index: the snapshot's store diff.
     */
    std::vector<Word> changedWords() const;

  private:
    static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

    /** Fibonacci hash of @p index onto the table. */
    std::size_t home(std::uint64_t index) const
    {
        return static_cast<std::size_t>(
            (index * 0x9e3779b97f4a7c15ULL) >> shift);
    }
    /** Add a word the table lacks, first growing it at half load. */
    void insert(std::uint64_t index, std::int64_t value);
    /** Put @p word in the first empty slot of its probe run. */
    void place(const Word &word);
    /** An empty table of 2^@p log2_slots slots. */
    void clearTable(int log2_slots);

    std::vector<Word> slots;
    std::size_t slotMask = 0;
    int shift = 0;
    std::size_t used = 0;
    std::uint64_t mask = 0;
    std::uint64_t seedMix = 0;
    int log2 = 0;
    std::uint64_t seedValue = 0;
};

/** Per-CTA shared scratchpad; addresses wrap modulo the word count. */
class SharedMemory
{
  public:
    /** @param bytes CTA shared-memory footprint (0 gives one word). */
    explicit SharedMemory(int bytes = 0);

    std::int64_t load(std::uint64_t addr) const
    {
        return words[addr % words.size()];
    }
    void store(std::uint64_t addr, std::int64_t value)
    {
        words[addr % words.size()] = value;
    }

    std::size_t sizeWords() const { return words.size(); }

    std::uint64_t digest() const;

    /** Direct word access (snapshots diff against the zero init). */
    std::int64_t word(std::size_t index) const { return words[index]; }
    void setWord(std::size_t index, std::int64_t value)
    {
        words[index] = value;
    }

  private:
    std::vector<std::int64_t> words;
};

} // namespace rm

#endif // RM_SIM_MEMORY_HH
