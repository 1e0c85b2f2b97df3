#ifndef RM_OBS_JSON_HH
#define RM_OBS_JSON_HH

/**
 * @file
 * Minimal JSON support for the observability layer: a streaming writer
 * the exporters emit through, and a small recursive-descent parser so
 * tests (and `rm-inspect --pretty`) can round-trip what we emit. Not a
 * general-purpose JSON library — it covers exactly the subset the
 * simulator's artifacts use (objects, arrays, strings, numbers, bools,
 * null) and fails fast on anything malformed.
 */

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/errors.hh"

namespace rm {

/**
 * Streaming JSON writer with automatic comma/key bookkeeping:
 *
 *     JsonWriter w;
 *     w.beginObject().key("cycles").value(42).endObject();
 *     std::string text = w.take();
 */
class JsonWriter
{
  public:
    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Member key; must be followed by a value or container begin. */
    JsonWriter &key(std::string_view name);

    JsonWriter &value(std::string_view text);
    JsonWriter &value(const char *text) { return value(std::string_view(text)); }
    JsonWriter &value(const std::string &text) { return value(std::string_view(text)); }
    JsonWriter &value(double number);
    JsonWriter &value(std::uint64_t number);
    JsonWriter &value(std::int64_t number);
    JsonWriter &value(int number) { return value(static_cast<std::int64_t>(number)); }
    JsonWriter &value(bool flag);
    JsonWriter &null();

    /** The serialized document (containers must all be closed). */
    std::string take();

    /** Escape @p text per RFC 8259 (quotes not included). */
    static std::string escape(std::string_view text);

  private:
    void separate();

    std::ostringstream out;
    std::vector<bool> needComma;  ///< per open container
    bool afterKey = false;
};

/** Parsed JSON value (tree form). */
struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> items;  ///< Array elements
    std::vector<std::pair<std::string, JsonValue>> members;  ///< Object

    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }

    /** Member lookup; nullptr when absent or not an object. */
    const JsonValue *find(std::string_view name) const;

    /** Member lookup; fatal when absent. */
    const JsonValue &at(std::string_view name) const;

    bool has(std::string_view name) const { return find(name) != nullptr; }
};

/**
 * Parse @p text; throws FatalError on malformed input. Containers may
 * nest at most @p max_depth deep — hostile deeply-nested garbage (a
 * damaged checkpoint or repro file) fails with a parse error instead
 * of exhausting the stack.
 */
JsonValue parseJson(std::string_view text, int max_depth = 128);

/**
 * A structurally valid JSON document whose fields do not match the
 * schema a decoder expects (wrong-typed member, negative count, ...).
 * Distinct from the parse-level FatalError so callers can report
 * "malformed JSON" and "valid JSON, wrong shape" differently; the
 * message names the offending key.
 */
class JsonSchemaError : public FatalError
{
  public:
    using FatalError::FatalError;
};

/**
 * Typed member accessors with the decoder compatibility contract the
 * artifact loaders (statsFromJson, the fuzz case codec, ...) share: a
 * *missing* member returns @p fallback (forward compatibility — older
 * producers), but a member that is *present with the wrong JSON type*
 * throws JsonSchemaError naming the key instead of silently decoding a
 * default. jsonU64 additionally rejects negative and non-integral
 * numbers, jsonInt/jsonI64 reject non-integral ones, and jsonInt
 * rejects values outside int's range instead of truncating.
 */
std::uint64_t jsonU64(const JsonValue &obj, std::string_view key,
                      std::uint64_t fallback = 0);
std::int64_t jsonI64(const JsonValue &obj, std::string_view key,
                     std::int64_t fallback = 0);
int jsonInt(const JsonValue &obj, std::string_view key, int fallback = 0);
double jsonNumber(const JsonValue &obj, std::string_view key,
                  double fallback = 0.0);
bool jsonBool(const JsonValue &obj, std::string_view key,
              bool fallback = false);
std::string jsonString(const JsonValue &obj, std::string_view key,
                       std::string fallback = {});

/**
 * Container accessors: nullptr when the member is absent, JsonSchemaError
 * when it is present but not an array / object.
 */
const JsonValue *jsonArray(const JsonValue &obj, std::string_view key);
const JsonValue *jsonObject(const JsonValue &obj, std::string_view key);

/** Throw JsonSchemaError unless @p value is an object (@p what names
 *  the document for the message). */
void requireJsonObject(const JsonValue &value, std::string_view what);

} // namespace rm

#endif // RM_OBS_JSON_HH
