/**
 * @file
 * Minimal JSON parsing for tests of the repo's own machine-readable
 * outputs (test-only, never linked into libgriffin).
 *
 * The result sinks (runtime/result_sink.hh) and the Chrome trace
 * writer (runtime/telemetry.hh) emit deterministic JSON / JSON Lines
 * documents; the tests read them back to check their structure.
 * This is a small recursive-descent parser over RFC 8259 — objects,
 * arrays, strings with the escapes our writer emits (plus \uXXXX),
 * numbers, booleans, null — returning an ordered document tree.
 *
 * Numbers keep their raw token alongside the parsed double, so 64-bit
 * cycle counts round-trip exactly (asInt() re-parses the token rather
 * than truncating a double).
 */

#ifndef GRIFFIN_TESTS_SUPPORT_JSON_HH
#define GRIFFIN_TESTS_SUPPORT_JSON_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace griffin {

class JsonValue
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    /** String contents (Kind::String, unescaped) or the raw numeric
     *  token (Kind::Number). */
    std::string text;
    std::vector<JsonValue> items; ///< Kind::Array elements, in order
    /** Kind::Object members in document order (our writers use fixed
     *  key order, so order-preserving round-trips are possible). */
    std::vector<std::pair<std::string, JsonValue>> members;

    bool isNull() const { return kind == Kind::Null; }
    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }
    bool isString() const { return kind == Kind::String; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isBool() const { return kind == Kind::Bool; }

    /** Member lookup (first match); null when absent or not an object. */
    const JsonValue *find(const std::string &key) const;

    /** Parsed forms; fatal() on a kind mismatch or unparsable token. */
    double asDouble() const;
    std::int64_t asInt() const;
    std::uint64_t asUint() const;
    const std::string &asString() const;
    bool asBool() const;
};

/**
 * Parse one JSON document.  Trailing content after the value is an
 * error (parse JSON Lines line by line).  Returns false and fills
 * `error` (with a byte offset) on malformed input.
 */
bool parseJson(const std::string &text, JsonValue &out,
               std::string &error);

} // namespace griffin

#endif // GRIFFIN_TESTS_SUPPORT_JSON_HH
