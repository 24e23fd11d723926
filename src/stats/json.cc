#include "stats/json.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ostream>

namespace rab
{

Json::Json(const Json &other) : type_(other.type_), v_(other.v_)
{
    switch (type_) {
      case Type::kString:
        v_.string = new std::string(*other.v_.string);
        break;
      case Type::kArray:
        v_.elements = new std::vector<Json>(*other.v_.elements);
        break;
      case Type::kObject:
        v_.members = new Members(*other.v_.members);
        break;
      default:
        break;
    }
}

Json::Json(Json &&other) noexcept : type_(other.type_), v_(other.v_)
{
    other.type_ = Type::kNull;
}

Json &
Json::operator=(const Json &other)
{
    if (this != &other)
        *this = Json(other);
    return *this;
}

Json &
Json::operator=(Json &&other) noexcept
{
    if (this != &other) {
        // Take other's payload before freeing ours: other may be one
        // of our own members or elements.
        const Type type = other.type_;
        const Payload v = other.v_;
        other.type_ = Type::kNull;
        reset();
        type_ = type;
        v_ = v;
    }
    return *this;
}

Json::~Json()
{
    reset();
}

void
Json::reset() noexcept
{
    switch (type_) {
      case Type::kString:
        delete v_.string;
        break;
      case Type::kArray:
        delete v_.elements;
        break;
      case Type::kObject:
        delete v_.members;
        break;
      default:
        break;
    }
    type_ = Type::kNull;
}

Json
Json::object()
{
    Json j;
    j.v_.members = new Members();
    j.type_ = Type::kObject;
    return j;
}

Json
Json::array()
{
    Json j;
    j.v_.elements = new std::vector<Json>();
    j.type_ = Type::kArray;
    return j;
}

std::size_t
Json::size() const
{
    if (type_ == Type::kArray)
        return v_.elements->size();
    if (type_ == Type::kObject)
        return v_.members->size();
    return 0;
}

bool
Json::asBool() const
{
    if (type_ != Type::kBool)
        throw JsonError("Json: not a bool");
    return v_.boolean;
}

double
Json::asDouble() const
{
    if (type_ != Type::kNumber)
        throw JsonError("Json: not a number");
    return v_.number;
}

std::uint64_t
Json::asU64() const
{
    const double v = asDouble();
    if (v < 0)
        throw JsonError("Json: negative value read as u64");
    return static_cast<std::uint64_t>(v);
}

const std::string &
Json::asString() const
{
    if (type_ != Type::kString)
        throw JsonError("Json: not a string");
    return *v_.string;
}

Json::Members &
Json::objectMembers(const char *what)
{
    if (type_ == Type::kNull)
        *this = object();
    if (type_ != Type::kObject)
        throw JsonError(std::string("Json: ") + what + " on a non-object");
    return *v_.members;
}

Json &
Json::operator[](const std::string &key)
{
    Members &members = objectMembers("operator[]");
    for (auto &[name, value] : members) {
        if (name == key)
            return value;
    }
    members.emplace_back(key, Json());
    return members.back().second;
}

const Json *
Json::find(const std::string &key) const
{
    if (type_ != Type::kObject)
        return nullptr;
    for (const auto &[name, value] : *v_.members) {
        if (name == key)
            return &value;
    }
    return nullptr;
}

const Json &
Json::at(const std::string &key) const
{
    const Json *found = find(key);
    if (!found)
        throw JsonError("Json: missing key '" + key + "'");
    return *found;
}

const Json &
Json::at(std::size_t index) const
{
    if (type_ != Type::kArray || index >= v_.elements->size())
        throw JsonError("Json: array index out of range");
    return (*v_.elements)[index];
}

void
Json::push(Json value)
{
    if (type_ == Type::kNull)
        *this = array();
    if (type_ != Type::kArray)
        throw JsonError("Json: push on a non-array");
    v_.elements->push_back(std::move(value));
}

void
Json::append(std::string key, Json value)
{
    objectMembers("append").emplace_back(std::move(key), std::move(value));
}

void
Json::reserve(std::size_t n)
{
    if (type_ == Type::kArray)
        v_.elements->reserve(n);
    else if (type_ == Type::kObject)
        v_.members->reserve(n);
    else
        throw JsonError("Json: reserve on a scalar");
}

const Json::Members &
Json::members() const
{
    if (type_ != Type::kObject)
        throw JsonError("Json: members() on a non-object");
    return *v_.members;
}

const std::vector<Json> &
Json::elements() const
{
    if (type_ != Type::kArray)
        throw JsonError("Json: elements() on a non-array");
    return *v_.elements;
}

namespace
{

/** write() hands its buffer to the stream whenever it holds this
 *  much; the buffer is reserved at twice that once, since between two
 *  checks it grows by one member line at most. */
constexpr std::size_t kWriteChunk = 32 * 1024;

void
appendEscaped(std::string &out, const std::string &s)
{
    out += '"';
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

void
appendNumber(std::string &out, double v)
{
    if (!std::isfinite(v)) {
        // JSON has no inf/nan; null is the conventional stand-in.
        out += "null";
        return;
    }
    // Integral values within the exactly-representable range print as
    // integers (cycle and instruction counts dominate the manifests).
    if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
        const auto as_int = static_cast<long long>(v);
        char buf[32];
        const auto [end, ec] =
            std::to_chars(buf, buf + sizeof(buf), as_int);
        out.append(buf, end);
        return;
    }
    char buf[64];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, end);
}

} // namespace

void
Json::dumpTo(std::string &out, int depth, std::ostream *os) const
{
    const auto indent = [&](int level) {
        out.append(static_cast<std::size_t>(level) * 2, ' ');
    };
    const auto spill = [&] {
        if (os && out.size() >= kWriteChunk) {
            os->write(out.data(), static_cast<std::streamsize>(out.size()));
            out.clear();
        }
    };
    switch (type_) {
      case Type::kNull:
        out += "null";
        break;
      case Type::kBool:
        out += v_.boolean ? "true" : "false";
        break;
      case Type::kNumber:
        appendNumber(out, v_.number);
        break;
      case Type::kString:
        appendEscaped(out, *v_.string);
        break;
      case Type::kArray: {
        const std::vector<Json> &elements = *v_.elements;
        if (elements.empty()) {
            out += "[]";
            break;
        }
        out += "[\n";
        for (std::size_t i = 0; i < elements.size(); ++i) {
            indent(depth + 1);
            elements[i].dumpTo(out, depth + 1, os);
            if (i + 1 < elements.size())
                out += ',';
            out += '\n';
            spill();
        }
        indent(depth);
        out += ']';
        break;
      }
      case Type::kObject: {
        const Members &members = *v_.members;
        if (members.empty()) {
            out += "{}";
            break;
        }
        out += "{\n";
        for (std::size_t i = 0; i < members.size(); ++i) {
            indent(depth + 1);
            appendEscaped(out, members[i].first);
            out += ": ";
            members[i].second.dumpTo(out, depth + 1, os);
            if (i + 1 < members.size())
                out += ',';
            out += '\n';
            spill();
        }
        indent(depth);
        out += '}';
        break;
      }
    }
}

std::string
Json::dump() const
{
    std::string out;
    dumpTo(out, 0, nullptr);
    out += '\n';
    return out;
}

void
Json::write(std::ostream &os) const
{
    std::string out;
    out.reserve(2 * kWriteChunk);
    dumpTo(out, 0, &os);
    out += '\n';
    os.write(out.data(), static_cast<std::streamsize>(out.size()));
}

namespace
{

/** Recursive-descent parser over a string view. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    Json parse()
    {
        Json value = parseValue();
        skipSpace();
        if (pos_ != text_.size())
            fail("trailing characters");
        return value;
    }

  private:
    [[noreturn]] void fail(const std::string &why) const
    {
        throw JsonError("Json parse error at offset "
                        + std::to_string(pos_) + ": " + why);
    }

    void skipSpace()
    {
        while (pos_ < text_.size()
               && std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    char peek()
    {
        skipSpace();
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool consumeLiteral(const char *literal)
    {
        const std::size_t len = std::char_traits<char>::length(literal);
        if (text_.compare(pos_, len, literal) == 0) {
            pos_ += len;
            return true;
        }
        return false;
    }

    Json parseValue()
    {
        switch (peek()) {
          case '{': return parseObject();
          case '[': return parseArray();
          case '"': return Json(parseString());
          case 't':
            if (consumeLiteral("true"))
                return Json(true);
            fail("bad literal");
          case 'f':
            if (consumeLiteral("false"))
                return Json(false);
            fail("bad literal");
          case 'n':
            if (consumeLiteral("null"))
                return Json();
            fail("bad literal");
          default: return parseNumber();
        }
    }

    Json parseObject()
    {
        expect('{');
        Json obj = Json::object();
        if (peek() == '}') {
            ++pos_;
            return obj;
        }
        while (true) {
            if (peek() != '"')
                fail("expected object key");
            std::string key = parseString();
            expect(':');
            obj[key] = parseValue();
            const char c = peek();
            ++pos_;
            if (c == '}')
                return obj;
            if (c != ',')
                fail("expected ',' or '}'");
        }
    }

    Json parseArray()
    {
        expect('[');
        Json arr = Json::array();
        if (peek() == ']') {
            ++pos_;
            return arr;
        }
        while (true) {
            arr.push(parseValue());
            const char c = peek();
            ++pos_;
            if (c == ']')
                return arr;
            if (c != ',')
                fail("expected ',' or ']'");
        }
    }

    std::string parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            const char esc = text_[pos_++];
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'n': out += '\n'; break;
              case 't': out += '\t'; break;
              case 'r': out += '\r'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code += static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code += static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code += static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("bad \\u escape");
                }
                // The writer only emits \u for control characters;
                // decode the BMP subset as UTF-8 for completeness.
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xc0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3f));
                } else {
                    out += static_cast<char>(0xe0 | (code >> 12));
                    out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
                    out += static_cast<char>(0x80 | (code & 0x3f));
                }
                break;
              }
              default: fail("unknown escape");
            }
        }
    }

    Json parseNumber()
    {
        skipSpace();
        const std::size_t start = pos_;
        while (pos_ < text_.size()
               && (std::isdigit(static_cast<unsigned char>(text_[pos_]))
                   || text_[pos_] == '-' || text_[pos_] == '+'
                   || text_[pos_] == '.' || text_[pos_] == 'e'
                   || text_[pos_] == 'E'))
            ++pos_;
        if (start == pos_)
            fail("expected a value");
        const std::string token = text_.substr(start, pos_ - start);
        char *end = nullptr;
        const double v = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size())
            fail("bad number '" + token + "'");
        return Json(v);
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

} // namespace

Json
Json::parse(const std::string &text)
{
    return Parser(text).parse();
}

} // namespace rab
