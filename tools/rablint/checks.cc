/**
 * @file
 * The five rablint checks (see rablint.hh for the contract each one
 * enforces and DESIGN.md §12 for scope notes and the annotation
 * grammar).
 *
 * All checks are token-sequence analyses over LexedFile. They are
 * deliberately conservative: every rule keys on declared *names*
 * (unordered container variables, cycle-flavoured identifiers, stat
 * registration calls) rather than inferred types, so a finding is
 * always explainable by pointing at the tokens on the flagged line.
 */

#include "rablint.hh"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

namespace rab::lint
{

namespace
{

const std::vector<std::string> kCheckNames = {
    "rab-unordered-iteration",
    "rab-banned-nondeterminism",
    "rab-cycle-arithmetic",
    "rab-stat-registration",
    "rab-raw-serialization",
};

/** Annotation keyword that silences each check at a site. */
const char *
suppressKeyword(const std::string &check)
{
    if (check == "rab-unordered-iteration")
        return "order-independent";
    if (check == "rab-banned-nondeterminism")
        return "nondeterminism-ok";
    if (check == "rab-cycle-arithmetic")
        return "cycle-ok";
    if (check == "rab-raw-serialization")
        return "raw-serialization-ok";
    return "stat-ok";
}

/** Is @p c part of a suppression category word? */
bool
isCategoryChar(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '-';
}

/**
 * A site is suppressed when a comment on its line — or in the
 * contiguous comment block ending on the line above — reads
 * `rablint: <keyword>` (reason text after the keyword is free form
 * and encouraged; multi-line reasons work because the whole block is
 * searched).
 *
 * Scoped form: `rablint: <keyword>=<category>` suppresses only
 * findings of that category (e.g. `nondeterminism-ok=wall-clock`
 * passes a wall-clock read but still flags a rand() two lines
 * later). The bare keyword remains the suppress-everything escape;
 * prefer the scoped form — it documents exactly which hazard was
 * reviewed and keeps the others armed.
 */
bool
suppressed(const LexedFile &lexed, int line, const std::string &check,
           const std::string &category = std::string())
{
    const std::string keyword = suppressKeyword(check);
    const auto matches = [&](int at) {
        const auto it = lexed.comments.find(at);
        if (it == lexed.comments.end())
            return false;
        const std::string &text = it->second;
        std::size_t pos = text.find("rablint:");
        if (pos == std::string::npos)
            return false;
        pos = text.find(keyword, pos);
        while (pos != std::string::npos) {
            const std::size_t after = pos + keyword.size();
            if (after >= text.size() || text[after] != '=')
                return true; // Bare keyword: any category.
            std::size_t end = after + 1;
            while (end < text.size() && isCategoryChar(text[end]))
                ++end;
            if (!category.empty()
                && text.compare(after + 1, end - after - 1, category)
                    == 0)
                return true;
            pos = text.find(keyword, end);
        }
        return false;
    };
    if (matches(line))
        return true;
    for (int at = line - 1; at > 0 && lexed.comments.count(at); --at) {
        if (matches(at))
            return true;
    }
    return false;
}

/** Split camelBack / snake_case identifiers into lowercased words. */
std::vector<std::string>
identWords(const std::string &name)
{
    std::vector<std::string> words;
    std::string word;
    for (std::size_t i = 0; i < name.size(); ++i) {
        const char c = name[i];
        if (c == '_') {
            if (!word.empty())
                words.push_back(word);
            word.clear();
            continue;
        }
        if (std::isupper(static_cast<unsigned char>(c)) && !word.empty()
            && !std::isupper(
                static_cast<unsigned char>(word.back()))) {
            words.push_back(word);
            word.clear();
        }
        word += static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    }
    if (!word.empty())
        words.push_back(word);
    return words;
}

/** Does the identifier carry a cycle-counter word? */
bool
isCycleName(const std::string &name)
{
    static const std::set<std::string> kWords = {
        "cycle", "cycles", "tick", "ticks", "deadline", "horizon",
    };
    for (const std::string &w : identWords(name)) {
        if (kWords.count(w))
            return true;
    }
    return false;
}

/**
 * Advance past a balanced template argument list. @p i indexes the
 * `<` token; returns the index one past the matching `>`. Treats `>>`
 * as two closers (C++11 rule). Bails out (returns @p i + 1) if no
 * close is found within the statement.
 */
std::size_t
skipTemplateArgs(const std::vector<Token> &toks, std::size_t i)
{
    int depth = 0;
    for (std::size_t j = i; j < toks.size(); ++j) {
        const std::string &t = toks[j].text;
        if (t == "<") {
            ++depth;
        } else if (t == ">") {
            if (--depth == 0)
                return j + 1;
        } else if (t == ">>") {
            depth -= 2;
            if (depth <= 0)
                return j + 1;
        } else if (t == ";") {
            break; // Not a template argument list after all.
        }
    }
    return i + 1;
}

bool
isKeyword(const std::string &t)
{
    static const std::set<std::string> kKeywords = {
        "if",     "else",    "for",      "while",  "return", "const",
        "static", "auto",    "struct",   "class",  "public", "private",
        "new",    "delete",  "sizeof",   "switch", "case",   "break",
        "using",  "typedef", "template", "typename",
    };
    return kKeywords.count(t) != 0;
}

using FindingSink = std::vector<Finding>;

void
report(FindingSink &out, const LexedFile &lexed, const std::string &path,
       const std::string &check, int line, const std::string &message,
       const std::string &category = std::string())
{
    if (suppressed(lexed, line, check, category))
        return;
    for (const Finding &f : out) {
        if (f.check == check && f.line == line && f.message == message)
            return; // Dedupe repeated hits on one line.
    }
    out.push_back({check, path, line, message});
}

// ---------------------------------------------------------------------
// rab-unordered-iteration
// ---------------------------------------------------------------------

bool
isUnorderedType(const std::string &t)
{
    return t == "unordered_map" || t == "unordered_set"
        || t == "unordered_multimap" || t == "unordered_multiset";
}

void
checkUnorderedIteration(const std::string &path, const LexedFile &lexed,
                        const UnorderedNames *global, FindingSink &out)
{
    static const std::string kCheck = "rab-unordered-iteration";
    const std::vector<Token> &toks = lexed.tokens;

    UnorderedNames names;
    if (global)
        names = *global;
    collectUnorderedNames(lexed, names);
    const std::set<std::string> &aliases = names.aliases;
    const std::set<std::string> &vars = names.vars;

    const auto is_unordered_name = [&](const Token &t) {
        return isUnorderedType(t.text) || aliases.count(t.text) != 0
            || vars.count(t.text) != 0;
    };

    // Pass 2a: range-for whose range expression names an unordered
    // container.
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (toks[i].text != "for" || toks[i + 1].text != "(")
            continue;
        int depth = 0;
        std::size_t colon = 0;
        std::size_t close = 0;
        for (std::size_t j = i + 1; j < toks.size(); ++j) {
            const std::string &t = toks[j].text;
            if (t == "(" || t == "[" || t == "{") {
                ++depth;
            } else if (t == ")" || t == "]" || t == "}") {
                if (--depth == 0) {
                    close = j;
                    break;
                }
            } else if (t == ":" && depth == 1 && colon == 0) {
                colon = j;
            } else if (t == ";" && depth == 1) {
                colon = 0; // Classic for loop, not range-for.
                break;
            }
        }
        if (colon == 0 || close == 0)
            continue;
        for (std::size_t j = colon + 1; j < close; ++j) {
            if (is_unordered_name(toks[j])) {
                report(out, lexed, path, kCheck, toks[i].line,
                       "range-for over unordered container '"
                           + toks[j].text
                           + "' — iteration order is not "
                             "deterministic; use an ordered "
                             "container or a sorted snapshot, or "
                             "annotate `// rablint: "
                             "order-independent (<why>)`");
                break;
            }
        }
    }

    // Pass 2b: explicit iterator traversal (`x.begin()` / `x.cbegin()`)
    // of a known unordered variable.
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
        if (!vars.count(toks[i].text))
            continue;
        if (toks[i + 1].text != "." && toks[i + 1].text != "->")
            continue;
        if (toks[i + 2].text == "begin" || toks[i + 2].text == "cbegin") {
            report(out, lexed, path, kCheck, toks[i].line,
                   "iterator traversal of unordered container '"
                       + toks[i].text
                       + "' — iteration order is not deterministic; "
                         "annotate `// rablint: order-independent "
                         "(<why>)` if no output depends on the "
                         "order");
        }
    }
}

// ---------------------------------------------------------------------
// rab-banned-nondeterminism
// ---------------------------------------------------------------------

/**
 * Finding categories for rab-banned-nondeterminism, usable in scoped
 * suppressions (`nondeterminism-ok=<category>`) and scoped allowlist
 * entries (`path=<category>`): "entropy" (host randomness),
 * "wall-clock" (host time), "pointer-key" (address-ordered
 * containers), "socket-io" (network syscalls).
 */
const char *kCatEntropy = "entropy";
const char *kCatWallClock = "wall-clock";
const char *kCatPointerKey = "pointer-key";
const char *kCatSocketIo = "socket-io";

void
checkBannedNondeterminism(const std::string &path, const LexedFile &lexed,
                          const Options &options, FindingSink &out)
{
    static const std::string kCheck = "rab-banned-nondeterminism";
    // Allowlist entries are path substrings, optionally scoped to one
    // category with `=<category>` (e.g. `src/foo/bar.cc=wall-clock`
    // exempts wall-clock findings there but keeps entropy, socket-io
    // and pointer-key armed).
    std::set<std::string> exempt_categories;
    for (const std::string &allowed : options.nondeterminismAllowlist) {
        const std::size_t eq = allowed.find('=');
        const std::string pattern = allowed.substr(0, eq);
        if (path.find(pattern) == std::string::npos)
            continue;
        if (eq == std::string::npos)
            return; // Bare entry: the whole file is sanctioned.
        exempt_categories.insert(allowed.substr(eq + 1));
    }
    const auto exempt = [&](const char *category) {
        return exempt_categories.count(category) != 0;
    };

    const std::vector<Token> &toks = lexed.tokens;
    static const std::set<std::string> kEntropyAlways = {
        "random_device",
    };
    static const std::set<std::string> kWallClockAlways = {
        "gettimeofday", "clock_gettime", "timespec_get",
        "rdtsc",        "__rdtsc",
    };
    static const std::set<std::string> kEntropyCalls = {
        "rand", "srand", "drand48", "lrand48",
    };
    static const std::set<std::string> kWallClockCalls = {
        "time", "clock",
    };
    static const std::set<std::string> kWallClocks = {
        "steady_clock", "system_clock", "high_resolution_clock",
    };
    static const std::set<std::string> kSocketCalls = {
        "socket",   "accept", "connect",    "recv",   "send",
        "recvfrom", "sendto", "epoll_wait", "select", "poll",
    };
    static const std::set<std::string> kOrderedStd = {
        "map", "set", "multimap", "multiset", "less", "greater",
    };

    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.kind != TokKind::kIdentifier)
            continue;

        const bool entropy_always = kEntropyAlways.count(t.text) != 0;
        if (entropy_always || kWallClockAlways.count(t.text)) {
            const char *category =
                entropy_always ? kCatEntropy : kCatWallClock;
            if (!exempt(category)) {
                report(out, lexed, path, kCheck, t.line,
                       "'" + t.text
                           + "' is nondeterministic across runs; route "
                             "randomness through rab::Rng and timing "
                             "through the profiler, or annotate "
                             "`// rablint: nondeterminism-ok="
                           + category + " (<why>)`",
                       category);
            }
            continue;
        }

        if (kWallClocks.count(t.text)) {
            if (!exempt(kCatWallClock)) {
                report(out, lexed, path, kCheck, t.line,
                       "wall-clock '" + t.text
                           + "' feeds host time into the simulation; "
                             "only sanctioned wall-time reporting may "
                             "use it (annotate `// rablint: "
                             "nondeterminism-ok=wall-clock (<why>)`)",
                       kCatWallClock);
            }
            continue;
        }

        // A banned libc call: `time(`, `rand(`, ... Skip member
        // accesses (`t.time()`), declarations of same-named methods
        // (`uint64_t time()`, return type right before the name), and
        // non-std qualification (`Timer::time(`).
        const bool entropy_call = kEntropyCalls.count(t.text) != 0;
        bool banned_call =
            (entropy_call || kWallClockCalls.count(t.text) != 0)
            && i + 1 < toks.size() && toks[i + 1].text == "(" && i > 0;
        if (banned_call) {
            const Token &prev = toks[i - 1];
            if (prev.text == "." || prev.text == "->" || prev.text == ">"
                || prev.text == "&" || prev.text == "*"
                || (prev.kind == TokKind::kIdentifier
                    && !isKeyword(prev.text)))
                banned_call = false;
            if (prev.text == "::"
                && !(i >= 2 && toks[i - 2].text == "std"))
                banned_call = false;
        }
        if (banned_call) {
            const char *category =
                entropy_call ? kCatEntropy : kCatWallClock;
            if (!exempt(category)) {
                report(out, lexed, path, kCheck, t.line,
                       "call to '" + t.text
                           + "()' is nondeterministic; use rab::Rng / "
                             "simulated cycles instead, or annotate "
                             "`// rablint: nondeterminism-ok="
                           + category + " (<why>)`",
                       category);
            }
            continue;
        }

        // Socket/select I/O: anything read off a socket is ordered by
        // the host scheduler and the network, never by the
        // simulation. src/ has no sanctioned call site; any future
        // service plumbing must annotate each one with
        // `nondeterminism-ok=socket-io` and a reason, and simulation
        // code gets flagged. Unlike the libc-call rule,
        // `::`-qualified *global* calls (`::poll(`) are still flagged
        // — that is exactly how socket syscalls are written.
        bool socket_call = kSocketCalls.count(t.text) != 0
            && i + 1 < toks.size() && toks[i + 1].text == "(" && i > 0;
        if (socket_call) {
            const Token &prev = toks[i - 1];
            if (prev.text == "." || prev.text == "->" || prev.text == ">"
                || prev.text == "&" || prev.text == "*"
                || (prev.kind == TokKind::kIdentifier
                    && !isKeyword(prev.text)))
                socket_call = false;
            if (prev.text == "::" && i >= 2
                && toks[i - 2].kind == TokKind::kIdentifier)
                socket_call = false; // Foo::poll(: a member, not libc.
        }
        if (socket_call) {
            if (!exempt(kCatSocketIo)) {
                report(out, lexed, path, kCheck, t.line,
                       "socket I/O call '" + t.text
                           + "()' in simulation code — host "
                             "scheduling order leaks in; only service "
                             "plumbing may use it (annotate "
                             "`// rablint: nondeterminism-ok="
                             "socket-io (<why>)`)",
                       kCatSocketIo);
            }
            continue;
        }

        // Pointer-keyed associative containers and comparators:
        // iteration order (ordered) or bucket order (unordered)
        // becomes address-space-layout dependent.
        const bool unordered_assoc = t.text == "unordered_map"
            || t.text == "unordered_set" || t.text == "unordered_multimap"
            || t.text == "unordered_multiset";
        const bool ordered_std = kOrderedStd.count(t.text) != 0 && i >= 2
            && toks[i - 1].text == "::" && toks[i - 2].text == "std";
        if ((unordered_assoc || ordered_std) && i + 1 < toks.size()
            && toks[i + 1].text == "<") {
            int depth = 0;
            std::string last;
            for (std::size_t j = i + 1; j < toks.size(); ++j) {
                const std::string &tj = toks[j].text;
                if (tj == "<") {
                    ++depth;
                } else if (tj == ">" || tj == ">>") {
                    depth -= (tj == ">") ? 1 : 2;
                    if (depth <= 0)
                        break;
                } else if (tj == "," && depth == 1) {
                    break;
                } else if (tj == ";") {
                    break;
                } else if (depth >= 1) {
                    last = tj;
                }
            }
            if (last == "*" && !exempt(kCatPointerKey)) {
                report(out, lexed, path, kCheck, t.line,
                       "pointer-keyed '" + t.text
                           + "' orders/hashes by address — "
                             "nondeterministic across runs; key by a "
                             "stable id instead, or annotate "
                             "`// rablint: nondeterminism-ok="
                             "pointer-key (<why>)`",
                       kCatPointerKey);
            }
        }
    }
}

// ---------------------------------------------------------------------
// rab-cycle-arithmetic
// ---------------------------------------------------------------------

void
checkCycleArithmetic(const std::string &path, const LexedFile &lexed,
                     FindingSink &out)
{
    static const std::string kCheck = "rab-cycle-arithmetic";
    const std::vector<Token> &toks = lexed.tokens;

    static const std::set<std::string> kBuiltin = {
        "unsigned", "signed", "long", "int", "short", "char",
    };
    static const std::set<std::string> kNarrowTypedefs = {
        "int8_t",  "uint8_t",  "int16_t", "uint16_t",
        "int32_t", "uint32_t", "float",
    };
    static const std::set<std::string> kSignedWideTypedefs = {
        "int64_t", "ptrdiff_t", "ssize_t",
    };
    static const std::set<std::string> kQualifiers = {
        "const", "constexpr", "static", "volatile", "mutable",
    };

    // Classify the builtin/typedef token run ending at index `end`
    // (exclusive). Returns 0 = fine / not a type run, 1 = narrower
    // than 64 bits, 2 = 64-bit but signed.
    const auto classify = [&](std::size_t end) -> int {
        std::set<std::string> words;
        std::size_t j = end;
        int longs = 0;
        while (j > 0) {
            const std::string &t = toks[j - 1].text;
            if (kQualifiers.count(t)) {
                --j;
                continue;
            }
            if (kBuiltin.count(t) || kNarrowTypedefs.count(t)
                || kSignedWideTypedefs.count(t)) {
                if (t == "long")
                    ++longs;
                words.insert(t);
                --j;
                continue;
            }
            break;
        }
        if (words.empty())
            return 0;
        const bool has_unsigned = words.count("unsigned") != 0;
        bool is64 = longs >= 1 || words.count("int64_t") != 0
            || words.count("ptrdiff_t") != 0
            || words.count("ssize_t") != 0;
        // Narrow typedefs win over no-info builtins.
        for (const std::string &w : words) {
            if (kNarrowTypedefs.count(w))
                is64 = false;
        }
        if (!is64)
            return 1;
        return has_unsigned ? 0 : 2;
    };

    const auto flag = [&](int line, int klass, const std::string &what) {
        report(out, lexed, path, kCheck, line,
               what
                   + (klass == 1
                          ? " narrows the 64-bit cycle domain — use "
                            "rab::Cycle (std::uint64_t)"
                          : " mixes signed arithmetic into the "
                            "unsigned 64-bit cycle domain — use "
                            "rab::Cycle (std::uint64_t)")
                   + ", or annotate `// rablint: cycle-ok (<why>)`");
    };

    // Rule A: cycle-named variables must be declared 64-bit unsigned.
    for (std::size_t i = 1; i + 1 < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.kind != TokKind::kIdentifier || !isCycleName(t.text))
            continue;
        static const std::set<std::string> kDeclFollow = {
            "=", ";", ",", ")", "{", ":", "[",
        };
        if (!kDeclFollow.count(toks[i + 1].text))
            continue;
        const int klass = classify(i);
        if (klass != 0)
            flag(t.line, klass,
                 "declaring cycle counter '" + t.text + "' as a type that");
    }

    // Rule B: static_cast of a cycle expression to a narrow or signed
    // type.
    for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
        if (toks[i].text != "static_cast" || toks[i + 1].text != "<")
            continue;
        const std::size_t after_args = skipTemplateArgs(toks, i + 1);
        // Classify the run of type tokens just before the closing '>'.
        const int klass = classify(after_args - 1);
        if (klass == 0)
            continue;
        if (after_args >= toks.size() || toks[after_args].text != "(")
            continue;
        int depth = 0;
        for (std::size_t j = after_args; j < toks.size(); ++j) {
            const std::string &tj = toks[j].text;
            if (tj == "(") {
                ++depth;
            } else if (tj == ")") {
                if (--depth == 0)
                    break;
            } else if (toks[j].kind == TokKind::kIdentifier
                       && (isCycleName(tj) || tj == "Cycle")) {
                flag(toks[i].line, klass,
                     "static_cast of cycle expression '" + tj
                         + "' to a type that");
                break;
            }
        }
    }
}

// ---------------------------------------------------------------------
// rab-stat-registration
// ---------------------------------------------------------------------

void
checkStatRegistration(const std::string &path, const LexedFile &lexed,
                      FindingSink &out)
{
    static const std::string kCheck = "rab-stat-registration";
    const std::vector<Token> &toks = lexed.tokens;

    // (receiver, name) pairs seen so far, with first-seen line.
    std::map<std::string, int> seen;

    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (toks[i].text != "addCounter" && toks[i].text != "addScalar")
            continue;
        if (toks[i + 1].text != "(")
            continue;

        // Skip declarations/definitions of the registration methods
        // themselves (`void addCounter(...)`, `StatGroup::addCounter`):
        // a call site is preceded by `.`, `->`, or statement
        // punctuation, never by a type name or `::`.
        if (i >= 1
            && (toks[i - 1].kind == TokKind::kIdentifier
                || toks[i - 1].text == "::" || toks[i - 1].text == "&"
                || toks[i - 1].text == "*" || toks[i - 1].text == ">"))
            continue;

        // Receiver: identifier before a `.`/`->`, else unqualified
        // (registration from inside the group's own scope).
        std::string receiver = "(unqualified)";
        if (i >= 2
            && (toks[i - 1].text == "." || toks[i - 1].text == "->")
            && toks[i - 2].kind == TokKind::kIdentifier)
            receiver = toks[i - 2].text;

        // First argument: tokens up to the first depth-1 comma.
        std::vector<const Token *> arg;
        int depth = 0;
        for (std::size_t j = i + 1; j < toks.size(); ++j) {
            const std::string &tj = toks[j].text;
            if (tj == "(") {
                ++depth;
                if (depth == 1)
                    continue;
            } else if (tj == ")") {
                if (--depth == 0)
                    break;
            } else if (tj == "," && depth == 1) {
                break;
            }
            arg.push_back(&toks[j]);
        }

        const bool all_strings = !arg.empty()
            && std::all_of(arg.begin(), arg.end(), [](const Token *t) {
                   return t->kind == TokKind::kString;
               });

        // Per-core indexed names: perCoreStatName(core, "name")
        // expands to "core<N>.name". The helper supplies the per-core
        // prefix and the embedded literal still carries a statically
        // diffable identity, so registration loops over cores need no
        // suppression. Uniqueness is keyed on the whole call spelling
        // (index expression included): the same spelling twice is a
        // real duplicate, while distinct constant indices are not.
        std::string name;
        bool per_core = false;
        if (!all_strings && !arg.empty()
            && arg[0]->text == "perCoreStatName") {
            for (const Token *t : arg) {
                if (t->kind == TokKind::kString)
                    per_core = true;
                name += t->text;
            }
            if (!per_core)
                name.clear();
        }

        if (!all_strings && !per_core) {
            report(out, lexed, path, kCheck, toks[i].line,
                   "stat name passed to " + toks[i].text
                       + "() must be a string literal so manifest "
                         "schemas stay statically diffable "
                         "(annotate `// rablint: stat-ok (<why>)` "
                         "for sanctioned dynamic names)");
            continue;
        }

        if (!per_core) {
            for (const Token *t : arg)
                name += t->text;
        }
        const std::string key = receiver + "\x1f" + name;
        const auto [it, inserted] = seen.emplace(key, toks[i].line);
        if (!inserted) {
            std::ostringstream msg;
            msg << "duplicate stat name \"" << name << "\" on group '"
                << receiver << "' (first registered at line "
                << it->second
                << ") — stat names must be unique within their group";
            report(out, lexed, path, kCheck, toks[i].line, msg.str());
        }
    }
}

// ---------------------------------------------------------------------
// rab-raw-serialization
// ---------------------------------------------------------------------

/**
 * std types that own heap memory or otherwise have no stable byte
 * layout — fwrite/fread of these (or of aggregates containing them)
 * persists pointers and capacity fields, not data.
 */
bool
isNonTrivialStd(const std::string &t)
{
    return t == "string" || t == "basic_string" || t == "vector"
        || t == "deque" || t == "list" || t == "forward_list"
        || t == "map" || t == "set" || t == "multimap"
        || t == "multiset" || isUnorderedType(t) || t == "unique_ptr"
        || t == "shared_ptr" || t == "weak_ptr" || t == "function"
        || t == "optional" || t == "variant" || t == "any";
}

void
checkRawSerialization(const std::string &path, const LexedFile &lexed,
                      const Options &options, FindingSink &out)
{
    static const std::string kCheck = "rab-raw-serialization";
    for (const std::string &allowed : options.rawSerializationAllowlist) {
        if (path.find(allowed) != std::string::npos)
            return; // A sanctioned byte-format module.
    }

    const std::vector<Token> &toks = lexed.tokens;

    // Pass 1a: struct/class definitions whose body carries a pointer
    // member, a vtable (`virtual`), or a non-trivially-copyable std
    // member. Conservative by design: any `*` in the body taints the
    // type — a pointer-returning method is strong evidence the type
    // manages indirection.
    std::set<std::string> hazard_types;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
        if (toks[i].text != "struct" && toks[i].text != "class")
            continue;
        if (toks[i + 1].kind != TokKind::kIdentifier)
            continue;
        std::size_t open = i + 2;
        while (open < toks.size() && toks[open].text != "{"
               && toks[open].text != ";")
            ++open;
        if (open >= toks.size() || toks[open].text == ";")
            continue; // Forward declaration.
        int depth = 0;
        bool hazardous = false;
        for (std::size_t j = open; j < toks.size(); ++j) {
            const std::string &tj = toks[j].text;
            if (tj == "{") {
                ++depth;
            } else if (tj == "}") {
                if (--depth == 0)
                    break;
            } else if (tj == "*" || tj == "virtual"
                       || isNonTrivialStd(tj)
                       || hazard_types.count(tj) != 0) {
                hazardous = true;
            }
        }
        if (hazardous)
            hazard_types.insert(toks[i + 1].text);
    }

    // Pass 1b: variables/members/parameters declared with a hazardous
    // type (mirrors collectUnorderedNames' declaration shape).
    std::set<std::string> hazard_vars;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (!isNonTrivialStd(toks[i].text)
            && !hazard_types.count(toks[i].text))
            continue;
        std::size_t k = i + 1;
        if (k < toks.size() && toks[k].text == "<")
            k = skipTemplateArgs(toks, k);
        while (k < toks.size()
               && (toks[k].text == "&" || toks[k].text == "*"
                   || toks[k].text == "const"))
            ++k;
        if (k + 1 >= toks.size() || toks[k].kind != TokKind::kIdentifier
            || isKeyword(toks[k].text))
            continue;
        const std::string &next = toks[k + 1].text;
        if (next == ";" || next == "=" || next == "{" || next == ","
            || next == ")" || next == ":" || next == "[")
            hazard_vars.insert(toks[k].text);
    }

    // Pass 2: fwrite/fread call sites whose argument list names a
    // hazardous type or variable.
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.text != "fwrite" && t.text != "fread")
            continue;
        if (toks[i + 1].text != "(" || i == 0)
            continue;
        const Token &prev = toks[i - 1];
        if (prev.text == "." || prev.text == "->" || prev.text == ">"
            || prev.text == "&" || prev.text == "*"
            || (prev.kind == TokKind::kIdentifier
                && !isKeyword(prev.text)))
            continue; // Member call or declaration, not libc.
        if (prev.text == "::" && !(i >= 2 && toks[i - 2].text == "std"))
            continue;

        int depth = 0;
        for (std::size_t j = i + 1; j < toks.size(); ++j) {
            const std::string &tj = toks[j].text;
            if (tj == "(") {
                ++depth;
                continue;
            }
            if (tj == ")") {
                if (--depth == 0)
                    break;
                continue;
            }
            if (toks[j].kind != TokKind::kIdentifier)
                continue;
            if (isNonTrivialStd(tj) || hazard_types.count(tj)
                || hazard_vars.count(tj)) {
                report(out, lexed, path, kCheck, t.line,
                       "raw " + t.text
                           + "() of pointer-bearing or "
                             "non-trivially-copyable '"
                           + tj
                           + "' — byte images of such types persist "
                             "addresses and heap capacity, not data; "
                             "route persistent state through the "
                             "versioned snapshot archive "
                             "(src/snapshot) or the trace writer, or "
                             "annotate `// rablint: "
                             "raw-serialization-ok (<why>)`");
                break;
            }
        }
    }
}

} // namespace

const std::vector<std::string> &
allCheckNames()
{
    return kCheckNames;
}

void
collectUnorderedNames(const LexedFile &lexed, UnorderedNames &names)
{
    const std::vector<Token> &toks = lexed.tokens;

    // Type aliases whose definition mentions an unordered container
    // (`using PendingMap = std::unordered_map<...>;`).
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
        if (toks[i].text != "using" && toks[i].text != "typedef")
            continue;
        if (toks[i].text == "using") {
            if (toks[i + 1].kind != TokKind::kIdentifier
                || toks[i + 2].text != "=")
                continue;
            const std::string name = toks[i + 1].text;
            for (std::size_t j = i + 3;
                 j < toks.size() && toks[j].text != ";"; ++j) {
                if (isUnorderedType(toks[j].text)
                    || names.aliases.count(toks[j].text)) {
                    names.aliases.insert(name);
                    break;
                }
            }
        } else { // typedef ... name;
            bool unordered = false;
            std::size_t j = i + 1;
            for (; j < toks.size() && toks[j].text != ";"; ++j) {
                if (isUnorderedType(toks[j].text)
                    || names.aliases.count(toks[j].text))
                    unordered = true;
            }
            if (unordered && j > i + 1
                && toks[j - 1].kind == TokKind::kIdentifier)
                names.aliases.insert(toks[j - 1].text);
        }
    }

    // Variables/members/parameters declared with an unordered
    // container type, directly or via an alias.
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const bool direct = isUnorderedType(toks[i].text);
        const bool via_alias = names.aliases.count(toks[i].text) != 0;
        if (!direct && !via_alias)
            continue;
        std::size_t k = i + 1;
        if (k < toks.size() && toks[k].text == "<")
            k = skipTemplateArgs(toks, k);
        while (k < toks.size()
               && (toks[k].text == "&" || toks[k].text == "*"
                   || toks[k].text == "const"))
            ++k;
        if (k + 1 >= toks.size() || toks[k].kind != TokKind::kIdentifier
            || isKeyword(toks[k].text))
            continue;
        const std::string &next = toks[k + 1].text;
        if (next == ";" || next == "=" || next == "{" || next == ","
            || next == ")" || next == ":")
            names.vars.insert(toks[k].text);
    }
}

std::vector<Finding>
analyze(const std::string &path, const LexedFile &lexed,
        const Options &options, const UnorderedNames *global)
{
    const auto enabled = [&](const std::string &check) {
        return options.checks.empty()
            || std::find(options.checks.begin(), options.checks.end(),
                         check)
            != options.checks.end();
    };

    std::vector<Finding> out;
    if (enabled("rab-unordered-iteration"))
        checkUnorderedIteration(path, lexed, global, out);
    if (enabled("rab-banned-nondeterminism"))
        checkBannedNondeterminism(path, lexed, options, out);
    if (enabled("rab-cycle-arithmetic"))
        checkCycleArithmetic(path, lexed, out);
    if (enabled("rab-stat-registration"))
        checkStatRegistration(path, lexed, out);
    if (enabled("rab-raw-serialization"))
        checkRawSerialization(path, lexed, options, out);

    std::stable_sort(out.begin(), out.end(),
                     [](const Finding &a, const Finding &b) {
                         return a.line < b.line;
                     });
    return out;
}

std::vector<Finding>
analyzeFile(const std::string &path, const Options &options)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("rablint: cannot open " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return analyze(path, lex(buf.str()), options);
}

} // namespace rab::lint
