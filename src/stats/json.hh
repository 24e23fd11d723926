/**
 * @file
 * Minimal JSON value type for machine-readable reports.
 *
 * The sweep engine's campaign manifests (BENCH_sweep.json) must be
 * byte-stable: two runs of the same grid — serial or parallel, any
 * thread count — have to serialise identically so CI can diff them and
 * the determinism test can byte-compare them. That rules out
 * std::map's sorted-only ordering tricks and locale-dependent number
 * formatting, so this class keeps object keys in insertion order and
 * formats numbers with std::to_chars (shortest round-trip form).
 *
 * parse() inverts dump() exactly: parse(dump(v)).dump() == dump(v).
 * Errors throw JsonError rather than panic() so a malformed baseline
 * file fails a perf gate gracefully instead of aborting the driver.
 *
 * A value is 16 bytes: the type tag and one word holding a bool, a
 * number or a pointer to the string, array or member list. A
 * campaign manifest holds one object member per stat per point, so
 * the member size is most of the document's size.
 */

#ifndef RAB_STATS_JSON_HH
#define RAB_STATS_JSON_HH

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace rab
{

/** Malformed document or wrong-type access. */
class JsonError : public std::runtime_error
{
  public:
    explicit JsonError(const std::string &what) : std::runtime_error(what)
    {
    }
};

/** One JSON value: null, bool, number, string, array or object. */
class Json
{
  public:
    enum class Type
    {
        kNull,
        kBool,
        kNumber,
        kString,
        kArray,
        kObject,
    };

    using Members = std::vector<std::pair<std::string, Json>>;

    Json() = default; ///< null
    Json(bool value) : type_(Type::kBool), v_{.boolean = value} {}
    Json(double value) : type_(Type::kNumber), v_{.number = value} {}
    Json(int value) : Json(static_cast<double>(value)) {}
    Json(std::uint64_t value) : Json(static_cast<double>(value)) {}
    Json(std::string value)
        : type_(Type::kString),
          v_{.string = new std::string(std::move(value))}
    {
    }
    Json(const char *value) : Json(std::string(value)) {}

    Json(const Json &other);
    Json(Json &&other) noexcept;
    Json &operator=(const Json &other);
    Json &operator=(Json &&other) noexcept;
    ~Json();

    static Json object();
    static Json array();

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::kNull; }
    bool isObject() const { return type_ == Type::kObject; }

    /** Array/object element count (0 for scalars). */
    std::size_t size() const;

    /** @{ Typed accessors; throw JsonError on a type mismatch. */
    bool asBool() const;
    double asDouble() const;
    std::uint64_t asU64() const;
    const std::string &asString() const;
    /** @} */

    /** Object lookup; inserts a null member when absent. Converts a
     *  null value into an object (so `j["a"]["b"] = 1` works). */
    Json &operator[](const std::string &key);

    /** Object lookup without insertion; nullptr when absent. */
    const Json *find(const std::string &key) const;

    /** Object lookup; throws JsonError when absent. */
    const Json &at(const std::string &key) const;

    /** Array element; throws JsonError when out of range. */
    const Json &at(std::size_t index) const;

    /** Append to an array. Converts a null value into an array. */
    void push(Json value);

    /** Append member @p key without looking for it first: O(1) where
     *  operator[] is O(members). The caller's keys must be unique.
     *  Converts a null value into an object. */
    void append(std::string key, Json value);

    /** Room for @p n members (object) or elements (array), so a
     *  document built to a known size allocates once. */
    void reserve(std::size_t n);

    /** Members in insertion order (object only). */
    const Members &members() const;

    /** Elements (array only). */
    const std::vector<Json> &elements() const;

    /** Serialise. Deterministic: insertion-ordered keys, to_chars
     *  numbers, 2-space indentation. */
    std::string dump() const;

    /** dump() to @p os through a bounded buffer: the same bytes,
     *  without the whole text in memory. */
    void write(std::ostream &os) const;

    /** Parse a document; throws JsonError with an offset on error. */
    static Json parse(const std::string &text);

  private:
    /** Append the text to @p out; with @p os, hand out's bytes to it
     *  whenever they pass a chunk. */
    void dumpTo(std::string &out, int depth, std::ostream *os) const;

    /** Free the string, array or members and become null. */
    void reset() noexcept;
    /** Become an empty object (from null) or throw @p what. */
    Members &objectMembers(const char *what);

    /** The value of type_: owned pointers for the heap types. */
    union Payload
    {
        bool boolean;
        double number;
        std::string *string;
        std::vector<Json> *elements;
        Members *members;
    };

    Type type_ = Type::kNull;
    Payload v_{.number = 0.0};
};

static_assert(sizeof(Json) == 16);

} // namespace rab

#endif // RAB_STATS_JSON_HH
