/// \file rules_file.cpp
/// Per-file rule passes. These are the line-level determinism rules the
/// original single-file linter shipped (wall-clock, unordered-iter,
/// float-eq, include-hygiene, span-pairing, alert-transitions) and the
/// pointer-key determinism upgrade. Everything here depends only on one
/// file's text, which is what makes the results cacheable by content
/// hash.

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "lint.hpp"

namespace lint {
namespace {

// ------------------------------------------------------------ wall-clock

void check_wall_clock(const FileText& f, std::vector<Finding>& out) {
  if (path_contains(f.path, "src/common/")) return;  // Rng + units live here
  static const std::vector<std::pair<std::string, std::string>> kTokens = {
      {"system_clock", "wall-clock read (std::chrono::system_clock)"},
      {"steady_clock", "wall-clock read (std::chrono::steady_clock)"},
      {"high_resolution_clock", "wall-clock read"},
      {"gettimeofday", "wall-clock read (gettimeofday)"},
      {"clock_gettime", "wall-clock read (clock_gettime)"},
      {"random_device", "nondeterministic entropy (std::random_device)"},
      {"rand", "C PRNG with hidden global state (rand)"},
      {"srand", "C PRNG with hidden global state (srand)"},
      {"getrandom", "nondeterministic entropy (getrandom)"},
  };
  for (std::size_t ln = 0; ln < f.code.size(); ++ln) {
    const std::string& s = f.code[ln];
    if (allowed(f, ln + 1, "wall-clock")) continue;
    for (const auto& [tok, why] : kTokens) {
      std::size_t p = find_word(s, tok);
      if (p == std::string::npos) continue;
      // rand/srand only count as calls.
      if ((tok == "rand" || tok == "srand")) {
        std::size_t q = p + tok.size();
        while (q < s.size() && s[q] == ' ') ++q;
        if (q >= s.size() || s[q] != '(') continue;
      }
      out.push_back({f.path, ln + 1, "wall-clock",
                     why + "; derive all timing/randomness from the seeded "
                           "virtual clock or parfft::Rng"});
      break;
    }
    // `time(` as a C-library call: the argument must look like time()'s
    // time_t* parameter (nullptr/0/NULL/&x), which distinguishes it from
    // a variable or constructor named `time`.
    for (std::size_t p = find_word(s, "time"); p != std::string::npos;
         p = find_word(s, "time", p + 1)) {
      std::size_t q = p + 4;
      while (q < s.size() && s[q] == ' ') ++q;
      if (q >= s.size() || s[q] != '(') continue;
      const bool member = p >= 1 && (s[p - 1] == '.' ||
                                     (p >= 2 && s[p - 2] == '-' && s[p - 1] == '>'));
      if (member) continue;
      std::size_t a = q + 1;
      while (a < s.size() && s[a] == ' ') ++a;
      const bool timey =
          s.compare(a, 7, "nullptr") == 0 || s.compare(a, 4, "NULL") == 0 ||
          (a < s.size() && s[a] == '&') ||
          (a < s.size() && s[a] == '0' && a + 1 < s.size() && s[a + 1] == ')');
      if (!timey) continue;
      out.push_back({f.path, ln + 1, "wall-clock",
                     "wall-clock read (time()); use virtual time"});
      break;
    }
    // Default-constructed mt19937 seeds from a fixed default but is a
    // smell: every engine must be seeded through parfft::Rng.
    for (std::size_t p = find_word(s, "mt19937"); p != std::string::npos;
         p = find_word(s, "mt19937", p + 1)) {
      std::size_t q = p + 7;
      if (q + 3 <= s.size() && s.compare(q, 3, "_64") == 0) q += 3;
      while (q < s.size() && s[q] == ' ') ++q;
      // Skip an optional variable name.
      while (q < s.size() && ident_char(s[q])) ++q;
      while (q < s.size() && s[q] == ' ') ++q;
      const bool argless =
          q >= s.size() || s[q] == ';' ||
          (s[q] == '(' && q + 1 < s.size() && s[q + 1] == ')') ||
          (s[q] == '{' && q + 1 < s.size() && s[q + 1] == '}');
      if (argless) {
        out.push_back({f.path, ln + 1, "wall-clock",
                       "default-seeded mt19937; seed explicitly via "
                       "parfft::Rng"});
        break;
      }
    }
  }
}

// -------------------------------------------------------- unordered-iter

/// Identifiers declared in this file as std::unordered_map/set.
std::set<std::string> unordered_vars(const FileText& f) {
  std::set<std::string> vars;
  for (const std::string& s : f.code) {
    for (const char* type : {"unordered_map", "unordered_set",
                             "unordered_multimap", "unordered_multiset"}) {
      std::size_t p = find_word(s, type);
      if (p == std::string::npos) continue;
      // Skip the template argument list to find the declared name.
      std::size_t q = p + std::strlen(type);
      if (q < s.size() && s[q] == '<') {
        int depth = 0;
        for (; q < s.size(); ++q) {
          if (s[q] == '<') ++depth;
          if (s[q] == '>' && --depth == 0) {
            ++q;
            break;
          }
        }
      }
      while (q < s.size() && (s[q] == ' ' || s[q] == '&' || s[q] == '*')) ++q;
      std::size_t b = q;
      while (q < s.size() && ident_char(s[q])) ++q;
      if (q > b) vars.insert(s.substr(b, q - b));
    }
  }
  return vars;
}

/// Does the statement starting at (line, col) -- the body of a for loop --
/// look effectful? Scans the balanced braces (or the single statement) for
/// sinks that leak iteration order into results, traces or reports.
bool effectful_body(const FileText& f, std::size_t line, std::size_t col,
                    std::size_t* end_line) {
  static const std::vector<std::string> kSinks = {
      "push_back", "emplace_back", "emplace",  "insert", "append", "add",
      "observe",   "record",       "complete", "sample", "write",  "print",
      "result",    "results",      "trace",    "tracer", "report", "rep",
      "out",       "<<",           "+=",
  };
  int depth = 0;
  bool braced = false;
  std::string body;
  std::size_t ln = line;
  std::size_t i = col;
  for (; ln < f.code.size(); ++ln, i = 0) {
    const std::string& s = f.code[ln];
    for (; i < s.size(); ++i) {
      const char c = s[i];
      if (c == '{') {
        ++depth;
        braced = true;
      } else if (c == '}') {
        --depth;
        if (braced && depth == 0) {
          *end_line = ln;
          goto scan;
        }
      } else if (c == ';' && !braced && depth == 0) {
        *end_line = ln;
        goto scan;
      }
      body += c;
    }
    body += '\n';
  }
  *end_line = f.code.size();
scan:
  for (const std::string& sink : kSinks) {
    if (sink == "<<" || sink == "+=") {
      if (body.find(sink) != std::string::npos) return true;
    } else if (find_word(body, sink) != std::string::npos) {
      return true;
    }
  }
  return false;
}

void check_unordered_iter(const FileText& f, std::vector<Finding>& out) {
  const std::set<std::string> vars = unordered_vars(f);
  for (std::size_t ln = 0; ln < f.code.size(); ++ln) {
    const std::string& s = f.code[ln];
    std::size_t p = find_word(s, "for");
    if (p == std::string::npos) continue;
    std::size_t open = s.find('(', p);
    if (open == std::string::npos) continue;
    // Find the range expression of a range-for (text after ':' inside the
    // for parens) or an iterator loop over `x.begin()`.
    int depth = 0;
    std::size_t close = open;
    for (; close < s.size(); ++close) {
      if (s[close] == '(') ++depth;
      if (s[close] == ')' && --depth == 0) break;
    }
    if (close >= s.size()) close = s.size();
    const std::string head = s.substr(open + 1, close - open - 1);
    bool over_unordered = false;
    const std::size_t colon = head.find(':');
    std::string range =
        colon != std::string::npos ? head.substr(colon + 1) : head;
    if (range.find("unordered_") != std::string::npos) over_unordered = true;
    for (const std::string& v : vars) {
      if (find_word(range, v) != std::string::npos) over_unordered = true;
    }
    if (!over_unordered) continue;
    if (colon == std::string::npos &&
        range.find(".begin") == std::string::npos &&
        range.find(".cbegin") == std::string::npos)
      continue;  // plain for over an index; order is the index order
    std::size_t end_line = ln;
    if (!effectful_body(f, ln, close + 1, &end_line)) continue;
    if (allowed(f, ln + 1, "unordered-iter")) continue;
    out.push_back(
        {f.path, ln + 1, "unordered-iter",
         "iteration over an unordered container feeds results/traces/"
         "reports; unordered order is not deterministic across stdlibs -- "
         "iterate a sorted view or use std::map"});
  }
}

// -------------------------------------------------------------- float-eq

bool float_literal_at(const std::string& s, std::size_t i, bool backwards) {
  // Forward: digits '.' digits [exp]; also ".5". Backwards: scan left.
  if (backwards) {
    // Find the token ending at i (exclusive); it must look like a float.
    std::size_t e = i;
    while (e > 0 && s[e - 1] == ' ') --e;
    std::size_t b = e;
    while (b > 0 && (std::isdigit(static_cast<unsigned char>(s[b - 1])) ||
                     s[b - 1] == '.' || s[b - 1] == 'e' || s[b - 1] == 'E' ||
                     s[b - 1] == 'f' || s[b - 1] == 'F' || s[b - 1] == '+' ||
                     s[b - 1] == '-'))
      --b;
    const std::string tok = s.substr(b, e - b);
    if (b > 0 && ident_char(s[b - 1])) return false;  // identifier tail
    return tok.find('.') != std::string::npos &&
           tok.find_first_of("0123456789") != std::string::npos;
  }
  std::size_t b = i;
  while (b < s.size() && s[b] == ' ') ++b;
  if (b < s.size() && (s[b] == '+' || s[b] == '-')) ++b;
  std::size_t d = b;
  bool dot = false, digit = false;
  while (d < s.size() &&
         (std::isdigit(static_cast<unsigned char>(s[d])) || s[d] == '.')) {
    dot |= s[d] == '.';
    digit |= std::isdigit(static_cast<unsigned char>(s[d])) != 0;
    ++d;
  }
  if (d < s.size() && ident_char(s[d]) && s[d] != 'e' && s[d] != 'E' &&
      s[d] != 'f' && s[d] != 'F')
    return false;  // e.g. 1.5x -- not a literal (cannot happen in valid C++)
  return dot && digit;
}

void check_float_eq(const FileText& f, std::vector<Finding>& out) {
  if (!f.explicit_file && !path_contains(f.path, "src/")) return;
  for (std::size_t ln = 0; ln < f.code.size(); ++ln) {
    const std::string& s = f.code[ln];
    for (std::size_t i = 0; i + 1 < s.size(); ++i) {
      if (!((s[i] == '=' || s[i] == '!') && s[i + 1] == '=')) continue;
      if (i > 0 && (s[i - 1] == '=' || s[i - 1] == '<' || s[i - 1] == '>'))
        continue;  // ===, <=, >= fragments
      if (i + 2 < s.size() && s[i + 2] == '=') continue;
      const bool lhs = i > 0 && float_literal_at(s, i, /*backwards=*/true);
      const bool rhs = float_literal_at(s, i + 2, /*backwards=*/false);
      if (!lhs && !rhs) continue;
      if (allowed(f, ln + 1, "float-eq")) continue;
      out.push_back(
          {f.path, ln + 1, "float-eq",
           "exact ==/!= against a floating-point literal; computed doubles "
           "compare unreliably -- use a tolerance, or annotate "
           "'parfft-lint: allow(float-eq)' if this is an exact sentinel"});
      ++i;
    }
  }
}

// ------------------------------------------------------- include-hygiene

void check_include_hygiene(const FileText& f, std::vector<Finding>& out) {
  if (f.path.size() < 4 || f.path.substr(f.path.size() - 4) != ".hpp") return;
  // token -> acceptable headers (any one suffices).
  static const std::vector<std::pair<std::string, std::vector<std::string>>>
      kNeeds = {
          {"std::vector", {"<vector>"}},
          {"std::string", {"<string>"}},
          {"std::map", {"<map>"}},
          {"std::multimap", {"<map>"}},
          {"std::unordered_map", {"<unordered_map>"}},
          {"std::unordered_set", {"<unordered_set>"}},
          {"std::set", {"<set>"}},
          {"std::list", {"<list>"}},
          {"std::deque", {"<deque>"}},
          {"std::array", {"<array>"}},
          {"std::optional", {"<optional>"}},
          {"std::function", {"<functional>"}},
          {"std::atomic", {"<atomic>"}},
          {"std::mutex", {"<mutex>"}},
          {"std::lock_guard", {"<mutex>"}},
          {"std::unique_lock", {"<mutex>"}},
          {"std::condition_variable", {"<condition_variable>"}},
          {"std::thread", {"<thread>"}},
          {"std::unique_ptr", {"<memory>"}},
          {"std::shared_ptr", {"<memory>"}},
          {"std::pair", {"<utility>"}},
          {"std::uint64_t", {"<cstdint>"}},
          {"std::int64_t", {"<cstdint>"}},
          {"std::uint32_t", {"<cstdint>"}},
          {"std::int32_t", {"<cstdint>"}},
          {"std::uint8_t", {"<cstdint>"}},
          {"std::size_t", {"<cstddef>", "<cstdint>", "<cstdio>", "<cstring>"}},
          {"std::byte", {"<cstddef>"}},
          {"std::complex", {"<complex>"}},
          {"std::ostream", {"<iosfwd>", "<ostream>", "<iostream>"}},
          {"std::istream", {"<iosfwd>", "<istream>", "<iostream>"}},
      };
  std::set<std::string> includes;
  for (const std::string& s : f.raw) {
    std::size_t p = s.find("#include");
    if (p == std::string::npos) continue;
    std::size_t b = s.find_first_of("<\"", p);
    if (b == std::string::npos) continue;
    std::size_t e = s.find_first_of(">\"", b + 1);
    if (e == std::string::npos) continue;
    includes.insert(s.substr(b, e - b + 1));
  }
  for (const auto& [token, headers] : kNeeds) {
    bool have = false;
    for (const std::string& h : headers) have |= includes.count(h) > 0;
    if (have) continue;
    for (std::size_t ln = 0; ln < f.code.size(); ++ln) {
      if (f.code[ln].find(token) == std::string::npos) continue;
      // Word-boundary check on the tail component.
      const std::size_t p = f.code[ln].find(token);
      const std::size_t e = p + token.size();
      if (e < f.code[ln].size() && ident_char(f.code[ln][e])) continue;
      if (allowed(f, ln + 1, "include-hygiene")) continue;
      out.push_back({f.path, ln + 1, "include-hygiene",
                     "uses " + token + " without including " + headers[0] +
                         "; headers must be self-sufficient"});
      break;  // one finding per missing header per file
    }
  }
}

// ---------------------------------------------------------- span-pairing

/// Identifiers declared in this file as (obs::)Tracer variables; the
/// member name `tracer` (RunTrace::tracer) is always a tracer receiver.
std::set<std::string> tracer_vars(const FileText& f) {
  std::set<std::string> vars = {"tracer"};
  for (const std::string& s : f.code) {
    for (std::size_t p = find_word(s, "Tracer"); p != std::string::npos;
         p = find_word(s, "Tracer", p + 1)) {
      std::size_t q = p + 6;
      while (q < s.size() && (s[q] == ' ' || s[q] == '&')) ++q;
      std::size_t b = q;
      while (q < s.size() && ident_char(s[q])) ++q;
      if (q > b) vars.insert(s.substr(b, q - b));
    }
  }
  return vars;
}

void check_span_pairing(const FileText& f, std::vector<Finding>& out) {
  const std::set<std::string> vars = tracer_vars(f);
  // The identifier immediately left of the '.' / '->' before position `p`.
  auto receiver = [](const std::string& s, std::size_t p) -> std::string {
    std::size_t e;
    if (p >= 1 && s[p - 1] == '.') {
      e = p - 1;
    } else if (p >= 2 && s[p - 2] == '-' && s[p - 1] == '>') {
      e = p - 2;
    } else {
      return {};
    }
    std::size_t b = e;
    while (b > 0 && ident_char(s[b - 1])) --b;
    return s.substr(b, e - b);
  };

  struct OpenSpan {
    std::size_t line;  ///< 1-based line of the begin()
    bool allow;        ///< suppressed via the allow mechanism
  };
  std::map<std::string, std::vector<OpenSpan>> open;
  for (std::size_t ln = 0; ln < f.code.size(); ++ln) {
    const std::string& s = f.code[ln];
    // (column, receiver, +1 begin / -1 end) events of this line, in order.
    struct Event {
      std::size_t col;
      std::string recv;
      int delta;
    };
    std::vector<Event> events;
    for (const auto& [tok, delta] :
         {std::pair<const char*, int>{"begin", +1}, {"end", -1}}) {
      const std::size_t len = std::strlen(tok);
      for (std::size_t p = find_word(s, tok); p != std::string::npos;
           p = find_word(s, tok, p + 1)) {
        std::size_t q = p + len;
        while (q < s.size() && s[q] == ' ') ++q;
        if (q >= s.size() || s[q] != '(') continue;
        const std::string r = receiver(s, p);
        if (vars.count(r) == 0) continue;  // container .begin()/.end() etc.
        events.push_back({p, r, delta});
      }
    }
    std::sort(events.begin(), events.end(),
              [](const Event& a, const Event& b) { return a.col < b.col; });
    for (const Event& e : events) {
      std::vector<OpenSpan>& stack = open[e.recv];
      if (e.delta > 0) {
        stack.push_back({ln + 1, allowed(f, ln + 1, "span-pairing")});
      } else if (!stack.empty()) {
        stack.pop_back();
      } else if (!allowed(f, ln + 1, "span-pairing")) {
        out.push_back({f.path, ln + 1, "span-pairing",
                       "tracer end() without an open begin() in this file; "
                       "parent spans must be opened and closed in the same "
                       "scope"});
      }
    }
  }
  for (const auto& [recv, stack] : open) {
    (void)recv;
    for (const OpenSpan& o : stack) {
      if (o.allow) continue;
      out.push_back({f.path, o.line, "span-pairing",
                     "tracer begin() without a matching end() in this file; "
                     "a leaked parent span corrupts span nesting -- close "
                     "it in the same scope or annotate "
                     "'parfft-lint: allow(span-pairing)'"});
    }
  }
}

// ----------------------------------------------------- alert-transitions

/// Survival state (ShardBreaker::state_, BrownoutController::stage_) may
/// only change through set_state()/set_stage(): those fire the
/// on_transition hooks that become ClusterReport::survival_log entries
/// and obs Alert spans (the "no silent transitions" contract in
/// survival.hpp). A raw assignment changes behavior without leaving a
/// trace. Scoped to src/cluster (and explicit file arguments, for the
/// fixture); a declaration with initializer -- the type token directly
/// before the target -- is creation, not transition, and is exempt.
void check_alert_transitions(const FileText& f, std::vector<Finding>& out) {
  if (!f.explicit_file && !path_contains(f.path, "src/cluster")) return;
  for (std::size_t ln = 0; ln < f.code.size(); ++ln) {
    const std::string& s = f.code[ln];
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (s[i] != '=') continue;
      if (i + 1 < s.size() && s[i + 1] == '=') {
        ++i;  // == comparison
        continue;
      }
      if (i > 0 && std::strchr("=!<>+-*/%&|^", s[i - 1]))
        continue;  // compound assignment or comparison fragment
      // The identifier being assigned, immediately left of the '='.
      std::size_t e = i;
      while (e > 0 && s[e - 1] == ' ') --e;
      std::size_t b = e;
      while (b > 0 && ident_char(s[b - 1])) --b;
      const std::string target = s.substr(b, e - b);
      // `BreakerState state_ = ...;` / `int stage_ = 0;`: a type token
      // precedes the target, so this is a declaration's initializer.
      std::size_t d = b;
      while (d > 0 && s[d - 1] == ' ') --d;
      const bool declared = d > 0 && ident_char(s[d - 1]);
      const bool member_write =
          !declared && (target == "state_" || target == "stage_");
      const bool enum_write =
          !declared && s.find("BreakerState::", i) != std::string::npos &&
          find_word(s.substr(0, i), "BreakerState") == std::string::npos;
      if (!member_write && !enum_write) continue;
      if (allowed(f, ln + 1, "alert-transitions")) continue;
      out.push_back(
          {f.path, ln + 1, "alert-transitions",
           "direct write to survival state" +
               (target.empty() ? std::string() : " (" + target + ")") +
               "; breaker/brownout transitions must go through set_state()/"
               "set_stage() so on_transition logs them as survival events "
               "and Alert spans -- or annotate "
               "'parfft-lint: allow(alert-transitions)'"});
    }
  }
}

// ----------------------------------------------------------- pointer-key

/// Reads the first template argument starting just after the '<' at
/// (line, col); template argument lists may span lines. Returns the
/// trimmed argument text ("" when unterminated within the lookahead).
std::string first_template_arg(const FileText& f, std::size_t line,
                               std::size_t col) {
  std::string arg;
  int depth = 1;
  std::size_t ln = line, i = col;
  const std::size_t last = std::min(f.code.size(), line + 6);  // lookahead cap
  for (; ln < last; ++ln, i = 0) {
    const std::string& s = f.code[ln];
    for (; i < s.size(); ++i) {
      const char c = s[i];
      if (c == '<' || c == '(') ++depth;
      if (c == '>' || c == ')') {
        if (--depth == 0) goto done;
      }
      if (c == ',' && depth == 1) goto done;
      arg += c;
    }
    arg += ' ';
  }
  return {};  // unterminated within the lookahead: not a template arg list
done:
  // Trim.
  std::size_t b = arg.find_first_not_of(' ');
  std::size_t e = arg.find_last_not_of(' ');
  if (b == std::string::npos) return {};
  return arg.substr(b, e - b + 1);
}

/// The determinism class the regex-era rules missed: a std::map/set (or
/// unordered_*) keyed by a pointer, a std::hash over a pointer type, or
/// a reinterpret_cast of a pointer to uintptr_t. All three order or hash
/// by allocation address, which varies run to run and across ASLR, so
/// anything ordered output derives from them diverges between otherwise
/// identical seeded runs. Scoped to src/ plus explicit file arguments.
void check_pointer_key(const FileText& f, std::vector<Finding>& out) {
  if (!f.explicit_file && !path_contains(f.path, "src/")) return;
  static const std::vector<std::string> kContainers = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset", "map", "set", "multimap", "multiset"};
  for (std::size_t ln = 0; ln < f.code.size(); ++ln) {
    const std::string& s = f.code[ln];
    for (const std::string& tok : kContainers) {
      for (std::size_t p = find_word(s, tok); p != std::string::npos;
           p = find_word(s, tok, p + 1)) {
        std::size_t q = p + tok.size();
        while (q < s.size() && s[q] == ' ') ++q;
        if (q >= s.size() || s[q] != '<') continue;
        // The short names (map, set, ...) double as variable names and
        // `x < y` comparisons; require namespace qualification for them.
        const bool qualified = p >= 2 && s[p - 1] == ':' && s[p - 2] == ':';
        if (!qualified && tok.rfind("unordered_", 0) != 0) continue;
        const std::string key = first_template_arg(f, ln, q + 1);
        if (key.empty() || key.back() != '*') continue;
        if (allowed(f, ln + 1, "pointer-key")) continue;
        out.push_back(
            {f.path, ln + 1, "pointer-key",
             "std::" + tok + " keyed by a pointer (" + key +
                 "); iteration/hash order follows allocation addresses, "
                 "which differ across runs and ASLR -- key by a stable id, "
                 "or annotate 'parfft-lint: allow(pointer-key)' if the "
                 "order provably never reaches output"});
      }
    }
    for (std::size_t p = find_word(s, "hash"); p != std::string::npos;
         p = find_word(s, "hash", p + 1)) {
      if (!(p >= 2 && s[p - 1] == ':' && s[p - 2] == ':')) continue;
      std::size_t q = p + 4;
      while (q < s.size() && s[q] == ' ') ++q;
      if (q >= s.size() || s[q] != '<') continue;
      const std::string key = first_template_arg(f, ln, q + 1);
      if (key.empty() || key.back() != '*') continue;
      if (allowed(f, ln + 1, "pointer-key")) continue;
      out.push_back({f.path, ln + 1, "pointer-key",
                     "std::hash over a pointer type (" + key +
                         ") hashes the allocation address; hash a stable id "
                         "instead"});
    }
    for (std::size_t p = find_word(s, "reinterpret_cast");
         p != std::string::npos; p = find_word(s, "reinterpret_cast", p + 1)) {
      std::size_t q = p + 16;
      while (q < s.size() && s[q] == ' ') ++q;
      if (q >= s.size() || s[q] != '<') continue;
      const std::string to = first_template_arg(f, ln, q + 1);
      if (to.find("uintptr_t") == std::string::npos &&
          to.find("intptr_t") == std::string::npos)
        continue;
      if (allowed(f, ln + 1, "pointer-key")) continue;
      out.push_back({f.path, ln + 1, "pointer-key",
                     "pointer cast to " + to +
                         " -- address-based hashing/ordering is "
                         "nondeterministic across runs; derive keys from "
                         "stable ids"});
    }
  }
}

}  // namespace

void run_file_rules(const FileText& f, FileReport& rep) {
  check_wall_clock(f, rep.findings);
  check_unordered_iter(f, rep.findings);
  check_float_eq(f, rep.findings);
  check_include_hygiene(f, rep.findings);
  check_span_pairing(f, rep.findings);
  check_alert_transitions(f, rep.findings);
  check_pointer_key(f, rep.findings);
}

}  // namespace lint
