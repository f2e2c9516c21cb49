/**
 * @file
 * A minimal JSON reader for the repo's own machine-readable outputs
 * (BENCH_*.json, stat dumps).  Recursive descent, no dependencies;
 * objects preserve insertion order so reports render keys in the order
 * the writer emitted them.  Also the two primitives every writer of
 * those outputs shares: string quoting and number rendering.
 *
 * This is a consumer for files the simulator itself writes -- it
 * accepts standard JSON (RFC 8259) but makes no attempt to be a
 * hardened parser for hostile input.
 */

#ifndef SIM_JSON_HH
#define SIM_JSON_HH

#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace sim {

/** Malformed input, with a byte offset in the message. */
class JsonError : public std::runtime_error
{
  public:
    explicit JsonError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/** One JSON value; a tagged union over the seven RFC types
 *  (integers are kept exact alongside the double). */
struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    /** Set when the number was written without '.'/exponent and fits
     *  an int64 -- lets consumers compare counters exactly. */
    bool isInteger = false;
    long long integer = 0;
    std::string str;
    std::vector<JsonValue> arr;
    /** Object members in insertion order (duplicates keep both). */
    std::vector<std::pair<std::string, JsonValue>> obj;

    bool isNull() const { return kind == Kind::Null; }
    bool isBool() const { return kind == Kind::Bool; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isArray() const { return kind == Kind::Array; }
    bool isObject() const { return kind == Kind::Object; }

    /** Object member lookup; nullptr when absent or not an object. */
    const JsonValue *find(const std::string &key) const;

    /** find() that throws JsonError naming the missing @p key. */
    const JsonValue &at(const std::string &key) const;

    /** The number (0.0 when not a number). */
    double asNumber() const { return isNumber() ? number : 0.0; }

    /** The string ("" when not a string). */
    const std::string &asString() const { return str; }
};

/**
 * Relative difference between two JSON numbers:
 * |a - b| / max(|a|, |b|), and 0.0 exactly when the values are
 * identical.  When both sides carry the exact-int64 tag the
 * difference is computed in integer space, so counters above 2^53
 * that collapse to the same double still report a nonzero drift --
 * routing them through double would silently forgive it.
 */
double numberRelDiff(const JsonValue &a, const JsonValue &b);

/** Parse one JSON document; trailing whitespace allowed, trailing
 *  garbage is an error.  @throws JsonError */
JsonValue parseJson(const std::string &text);

/** Read and parse a JSON file.  @throws JsonError (also on I/O). */
JsonValue parseJsonFile(const std::string &path);

/** @p s as a quoted JSON string (control characters escaped). */
std::string jsonQuote(const std::string &s);

/** @p v in shortest round-trippable form ("%.17g"); inf and nan
 *  render as null, since JSON has neither. */
std::string jsonNumber(double v);

} // namespace sim

#endif // SIM_JSON_HH
