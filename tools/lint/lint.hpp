/// \file lint.hpp
/// Shared types of the parfft_lint whole-program analyzer.
///
/// The tool is organised as a small multi-pass pipeline:
///
///   source.cpp      loading, comment/string stripping, allow directives,
///                   token helpers, FNV-1a hashing
///   rules_file.cpp  the per-file determinism rules (wall-clock,
///                   unordered-iter, float-eq, include-hygiene,
///                   span-pairing, alert-transitions, pointer-key)
///   accounting.cpp  accounting.def parsing, counter-field extraction
///                   from the report/cache headers, and the cross-TU
///                   direct-write pass
///   cache.cpp       the content-hash incremental finding cache
///   output.cpp      deterministic ordering, text report, SARIF 2.1.0,
///                   baseline suppressions
///   parfft_lint.cpp the driver
///
/// Every pass works on one file at a time and produces a cacheable
/// FileReport. The module layer order is not checked here: the build
/// enforces it (cmake/ParfftModule.cmake).

#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace lint {

struct Finding {
  std::string file;
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

/// Everything the per-file passes extract from one file. This is the
/// unit the incremental cache stores: on a content-hash hit the file is
/// not re-analysed.
struct FileReport {
  std::vector<Finding> findings;
};

struct FileText {
  std::string path;           ///< generic (forward-slash) form
  bool explicit_file = false; ///< named on the command line, not found by recursion
  std::vector<std::string> raw;   ///< original lines (allow-directive scan)
  std::vector<std::string> code;  ///< comments and literal contents blanked
  std::set<std::pair<std::size_t, std::string>> allows;  ///< (1-based line, rule)
};

// ----------------------------------------------------------- source.cpp

/// Splits `content` into lines, strips comments/strings and collects
/// allow directives.
void build_file_text(FileText& f, const std::string& content);

bool allowed(const FileText& f, std::size_t line1, const std::string& rule);
bool ident_char(char c);
/// Position of `token` in `s` at identifier boundaries, from `from`.
std::size_t find_word(const std::string& s, const std::string& token,
                      std::size_t from = 0);
bool path_contains(const std::string& path, const std::string& dir);
std::uint64_t fnv1a(const std::string& data, std::uint64_t seed = 0xcbf29ce484222325ull);

// ----------------------------------------------------------- registry

struct Rule {
  const char* name;
  const char* summary;  ///< one line, shown by --help and in SARIF rule metadata
};

/// Every rule the analyzer can emit, in documentation order. --help and
/// --expect validation are both generated from this table, so the two
/// can never drift.
const std::vector<Rule>& registry();
bool known_rule(const std::string& name);

// ------------------------------------------------------- rules_file.cpp

/// Runs every per-file rule over `f`, appending findings to `rep`.
void run_file_rules(const FileText& f, FileReport& rep);

// ------------------------------------------------------- accounting.cpp

/// One counter-bearing type from accounting.def: the header its fields
/// are extracted from and the sanctioned accessor files allowed to
/// mutate them.
struct CounterType {
  std::string name;    ///< e.g. "ServeReport"
  std::string header;  ///< repo-relative header the fields come from
  std::set<std::string> fields;      ///< arithmetic data members indexed
  std::vector<std::string> writers;  ///< sanctioned file path suffixes
};

struct CounterSpec {
  std::string path;  ///< spec file, for messages
  std::vector<CounterType> types;
  /// field -> indices into `types` (a name may belong to several types).
  std::map<std::string, std::vector<std::size_t>> by_field;

  bool loaded() const { return !types.empty(); }
};

/// Parses `path` and extracts each type's counter fields from its
/// header (resolved against the spec file's repo root). Returns false
/// and sets `err` when the spec or a header cannot be read or a type's
/// definition is not found.
bool parse_counter_spec(const std::string& path, CounterSpec& spec, std::string& err);

/// The cross-TU accounting pass for one file: direct writes (=, +=, ++,
/// ...) to an indexed counter outside the sanctioned accessor files.
void check_accounting(const FileText& f, const CounterSpec& spec,
                      std::vector<Finding>& out);

// ------------------------------------------------------------ cache.cpp

/// Incremental finding cache, keyed by per-file content hash under one
/// configuration hash (tool version + specs + indexed headers). A stale
/// configuration invalidates every record at load time.
class Cache {
 public:
  /// Loads `path` if it exists and its config hash matches.
  void load(const std::string& path, std::uint64_t config_hash);
  /// Cached report for (path, content hash, explicit flag), or nullptr.
  const FileReport* lookup(const std::string& file, std::uint64_t hash,
                           bool explicit_file) const;
  void put(const std::string& file, std::uint64_t hash, bool explicit_file,
           const FileReport& rep);
  /// Rewrites the cache with exactly the records put() this run (records
  /// of deleted files age out).
  bool save(const std::string& path, std::uint64_t config_hash) const;

 private:
  struct Entry {
    std::uint64_t hash = 0;
    bool explicit_file = false;
    FileReport rep;
  };
  std::map<std::string, Entry> loaded_;
  std::map<std::string, Entry> current_;
};

// ----------------------------------------------------------- output.cpp

/// Sorts by (file, line, rule, message): byte-stable output regardless
/// of filesystem traversal order.
void sort_findings(std::vector<Finding>& findings);

/// Repo-relative form of a finding path (from the first src/ bench/
/// tests/ tools/ examples/ component) for SARIF URIs and baseline
/// matching; falls back to the path unchanged.
std::string rel_path(const std::string& path);

/// Baseline suppression file: '<rule>\t<rel-path>\t<line>' lines,
/// '#' comments. Returns false + err when the file cannot be read.
struct Baseline {
  std::set<std::string> keys;  ///< "rule\tpath\tline"
  bool loaded = false;
};
bool load_baseline(const std::string& path, Baseline& b, std::string& err);

/// Removes findings present in the baseline; returns the suppressed
/// count and reports stale (unmatched) baseline entries via `stale`.
std::size_t apply_baseline(std::vector<Finding>& findings, const Baseline& b,
                           std::vector<std::string>& stale);

/// Writes a SARIF 2.1.0 log of `findings` (rule metadata from the
/// registry). Returns false when the file cannot be written.
bool write_sarif(const std::string& path, const std::vector<Finding>& findings);

}  // namespace lint
