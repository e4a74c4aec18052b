/// \file cache.cpp
/// Incremental finding cache. One whole-tree lint invocation reads every
/// file (hashing needs the bytes anyway) but only re-runs the rule
/// passes over files whose content hash changed; everything else reuses
/// the cached findings. The cache is keyed under a configuration hash --
/// tool version, accounting.def and the headers the counter index is
/// extracted from -- so any change to the rules' inputs invalidates every
/// record at once.
///
/// Format (tab-separated, one record per file):
///   parfft-lint-cache <version> <config-hash>
///   F <content-hash> <explicit 0|1> <path>
///   V <line> <rule> <message>
///
/// save() writes exactly the records of the files seen this run, so
/// records of deleted files age out instead of accumulating.

#include <fstream>
#include <sstream>

#include "lint.hpp"

namespace lint {

namespace {
constexpr const char* kMagic = "parfft-lint-cache";
constexpr const char* kVersion = "v2";  // v1 also held include facts

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << v;
  return os.str();
}
}  // namespace

void Cache::load(const std::string& path, std::uint64_t config_hash) {
  std::ifstream in(path);
  if (!in) return;  // cold cache
  std::string line;
  if (!std::getline(in, line)) return;
  {
    std::stringstream head(line);
    std::string magic, version, cfg;
    head >> magic >> version >> cfg;
    if (magic != kMagic || version != kVersion || cfg != hex(config_hash))
      return;  // stale tool or configuration: full re-analysis
  }
  Entry* cur = nullptr;
  std::string file;
  while (std::getline(in, line)) {
    std::stringstream ss(line);
    std::string tag;
    if (!std::getline(ss, tag, '\t')) continue;
    if (tag == "F") {
      std::string hash_s, expl;
      if (!std::getline(ss, hash_s, '\t') || !std::getline(ss, expl, '\t') ||
          !std::getline(ss, file))
        return;  // truncated record: drop the rest
      cur = &loaded_[file];
      cur->hash = std::stoull(hash_s, nullptr, 16);
      cur->explicit_file = expl == "1";
    } else if (tag == "V" && cur) {
      std::string ln_s, rule, msg;
      if (!std::getline(ss, ln_s, '\t') || !std::getline(ss, rule, '\t') ||
          !std::getline(ss, msg))
        return;
      cur->rep.findings.push_back({file, std::stoull(ln_s), rule, msg});
    }
  }
}

const FileReport* Cache::lookup(const std::string& file, std::uint64_t hash,
                                bool explicit_file) const {
  const auto it = loaded_.find(file);
  if (it == loaded_.end()) return nullptr;
  if (it->second.hash != hash || it->second.explicit_file != explicit_file)
    return nullptr;
  return &it->second.rep;
}

void Cache::put(const std::string& file, std::uint64_t hash,
                bool explicit_file, const FileReport& rep) {
  Entry e;
  e.hash = hash;
  e.explicit_file = explicit_file;
  e.rep = rep;
  current_[file] = std::move(e);
}

bool Cache::save(const std::string& path, std::uint64_t config_hash) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << kMagic << ' ' << kVersion << ' ' << hex(config_hash) << '\n';
  for (const auto& [file, e] : current_) {
    out << "F\t" << hex(e.hash) << '\t' << (e.explicit_file ? 1 : 0) << '\t'
        << file << '\n';
    for (const Finding& v : e.rep.findings)
      out << "V\t" << v.line << '\t' << v.rule << '\t' << v.message << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace lint
