#include "sa/rank.h"

#include <algorithm>
#include <map>
#include <sstream>

namespace cbp::sa {
namespace {

/// Proximity window (lines) for matching an existing annotation to a
/// candidate site: trigger objects are constructed a few lines before
/// the access/acquisition they guard.
constexpr std::uint32_t kAnnotationWindow = 8;

const Annotation* nearby_annotation(const Candidate& c,
                                    const std::vector<UnitModel>& units) {
  for (const UnitModel& unit : units) {
    if (unit.name != c.unit) continue;
    for (const Annotation& ann : unit.annotations) {
      for (const SiteRef* site : {&c.site_a, &c.site_b}) {
        if (ann.site.file != site->file) continue;
        const std::uint32_t lo = std::min(ann.site.line, site->line);
        const std::uint32_t hi = std::max(ann.site.line, site->line);
        if (hi - lo <= kAnnotationWindow) return &ann;
      }
    }
  }
  return nullptr;
}

int score_candidate(const Candidate& c) {
  int score = 0;
  switch (c.kind) {
    case Candidate::Kind::kConflict:
      score = 100;
      if (c.a_is_write && c.b_is_write) score += 25;  // write/write first
      break;
    case Candidate::Kind::kDeadlock:
      score = 95;
      break;
    case Candidate::Kind::kAtomicity:
      score = 98;  // below an unguarded race, above a deadlock crossing
      break;
    case Candidate::Kind::kContention:
      score = 60;
      break;
  }
  // Fewer guarding/held locks first: an unguarded pair is the strongest
  // static signal.  (For deadlocks the crossing lock itself is expected
  // in each held set, and for atomicity candidates the spanning lock is
  // by construction in both; only extra locks count against the pair.)
  int guard_locks = static_cast<int>(c.locks_a.size() + c.locks_b.size());
  if ((c.kind == Candidate::Kind::kDeadlock ||
       c.kind == Candidate::Kind::kAtomicity) &&
      guard_locks >= 2) {
    guard_locks -= 2;
  }
  score -= 8 * guard_locks;
  if (c.site_a.file == c.site_b.file) score += 10;  // same-file boost
  if (!c.existing.empty()) score += 5;  // rediscovered a known bug
  return score;
}

std::string sanitize(std::string text) {
  for (char& c : text) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                    c == ':' || c == '-';
    if (!ok) c = '-';
  }
  // Collapse runs of '-' left by multi-char separators like " <-> ".
  std::string out;
  for (char c : text) {
    if (c == '-' && !out.empty() && out.back() == '-') continue;
    out += c;
  }
  return out;
}

std::string locks_str(const std::vector<std::string>& locks) {
  std::string out = "{";
  for (std::size_t i = 0; i < locks.size(); ++i) {
    if (i != 0) out += ",";
    out += locks[i];
  }
  return out + "}";
}

const char* rw(const Candidate& c, bool first) {
  if (c.kind != Candidate::Kind::kConflict &&
      c.kind != Candidate::Kind::kAtomicity) {
    return "-";
  }
  return (first ? c.a_is_write : c.b_is_write) ? "w" : "r";
}

/// Resolves an annotation's first-argument identifier (e.g. kRace1) to
/// the runtime breakpoint name it carries, via the unit's string-constant
/// table.  A literal argument is already the runtime name.
std::string resolve_runtime_name(const std::string& existing,
                                 const std::string& unit,
                                 const std::vector<UnitModel>& units) {
  if (existing.empty()) return "";
  for (const UnitModel& u : units) {
    if (u.name != unit) continue;
    const auto it = u.consts.find(existing);
    if (it != u.consts.end()) return it->second;
  }
  // String literals in annotations never look like identifiers with a
  // 'k' prefix; treat anything containing '-' or ' ' as already-literal.
  if (existing.find('-') != std::string::npos ||
      existing.find(' ') != std::string::npos) {
    return existing;
  }
  return "";
}

}  // namespace

void rank_candidates(std::vector<Candidate>& candidates,
                     const std::vector<UnitModel>& units) {
  for (Candidate& c : candidates) {
    if (const Annotation* ann = nearby_annotation(c, units)) {
      c.existing = ann->name;
      c.existing_runtime = resolve_runtime_name(c.existing, c.unit, units);
    }
    c.score = score_candidate(c);
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.score != b.score) return a.score > b.score;
              if (a.kind != b.kind) return a.kind < b.kind;
              if (!(a.site_a == b.site_a)) return a.site_a < b.site_a;
              if (!(a.site_b == b.site_b)) return a.site_b < b.site_b;
              return a.subject < b.subject;
            });
  std::map<std::string, int> used;
  for (Candidate& c : candidates) {
    std::string name = sanitize(
        "sa-" + kind_str(c.kind) + "-" + c.subject + "-" +
        c.site_a.basename() + "-" + std::to_string(c.site_a.line) + "-" +
        std::to_string(c.site_b.line));
    const int n = ++used[name];
    if (n > 1) name.append("-").append(std::to_string(n));
    c.spec_name = std::move(name);
  }
}

std::vector<detect::CandidateReport> to_reports(
    const std::vector<Candidate>& candidates) {
  std::vector<detect::CandidateReport> reports;
  reports.reserve(candidates.size());
  for (const Candidate& c : candidates) {
    detect::CandidateReport report;
    switch (c.kind) {
      case Candidate::Kind::kConflict:
        report.kind = detect::CandidateReport::Kind::kConflict;
        break;
      case Candidate::Kind::kContention:
        report.kind = detect::CandidateReport::Kind::kContention;
        break;
      case Candidate::Kind::kDeadlock:
        report.kind = detect::CandidateReport::Kind::kDeadlock;
        break;
      case Candidate::Kind::kAtomicity:
        report.kind = detect::CandidateReport::Kind::kAtomicity;
        break;
    }
    report.breakpoint = c.spec_name;
    report.subject = c.subject;
    report.file_a = c.site_a.file;
    report.line_a = c.site_a.line;
    report.a_is_write = c.a_is_write;
    report.file_b = c.site_b.file;
    report.line_b = c.site_b.line;
    report.b_is_write = c.b_is_write;
    report.score = c.score;
    report.existing = c.existing;
    reports.push_back(std::move(report));
  }
  return reports;
}

std::string render_report(const std::vector<Candidate>& candidates,
                          std::size_t top) {
  std::size_t conflicts = 0;
  std::size_t deadlocks = 0;
  std::size_t contentions = 0;
  std::size_t atomicities = 0;
  for (const Candidate& c : candidates) {
    switch (c.kind) {
      case Candidate::Kind::kConflict: ++conflicts; break;
      case Candidate::Kind::kDeadlock: ++deadlocks; break;
      case Candidate::Kind::kContention: ++contentions; break;
      case Candidate::Kind::kAtomicity: ++atomicities; break;
    }
  }
  std::ostringstream out;
  out << "cbp-sa: " << candidates.size() << " breakpoint candidate"
      << (candidates.size() == 1 ? "" : "s") << " (" << conflicts
      << " conflict, " << atomicities << " atomicity, " << deadlocks
      << " deadlock, " << contentions << " contention)\n";
  const std::vector<detect::CandidateReport> reports = to_reports(candidates);
  const std::size_t limit =
      top == 0 ? reports.size() : std::min(top, reports.size());
  for (std::size_t i = 0; i < limit; ++i) {
    const Candidate& c = candidates[i];
    out << "\n[" << (i + 1) << "] score=" << c.score << " unit=" << c.unit
        << " name=" << c.spec_name << "\n";
    out << reports[i].str() << "\n";
    out << "  locksets: " << locks_str(c.locks_a) << " / "
        << locks_str(c.locks_b) << "\n";
  }
  if (limit < reports.size()) {
    out << "\n(" << (reports.size() - limit) << " more not shown)\n";
  }
  return out.str();
}

std::string render_spec(const std::vector<Candidate>& candidates,
                        std::size_t top) {
  std::ostringstream out;
  out << "# cbp-sa statically mined breakpoint candidates\n"
      << "# load via BreakpointSpec::parse / install(); every entry is a\n"
      << "# candidate (l1, l2) pair — adjust pause/ignore_first/bound per\n"
      << "# breakpoint as with dynamically mined specs.\n";
  const std::size_t limit =
      top == 0 ? candidates.size() : std::min(top, candidates.size());
  for (std::size_t i = 0; i < limit; ++i) {
    const Candidate& c = candidates[i];
    out << "# candidate: " << kind_str(c.kind) << " '" << c.subject << "' "
        << c.site_a.str() << " <-> " << c.site_b.str()
        << " score=" << c.score << " unit=" << c.unit;
    if (!c.existing.empty()) out << " existing=" << c.existing;
    out << "\n" << c.spec_name << " from=static\n";
  }
  return out.str();
}

std::string render_list(const std::vector<Candidate>& candidates) {
  std::ostringstream out;
  for (const Candidate& c : candidates) {
    out << kind_str(c.kind) << " " << c.subject << " " << c.site_a.str()
        << ":" << rw(c, true) << " " << c.site_b.str() << ":" << rw(c, false)
        << " locks_a=" << locks_str(c.locks_a)
        << " locks_b=" << locks_str(c.locks_b) << " score=" << c.score
        << " unit=" << c.unit << "\n";
  }
  return out.str();
}

}  // namespace cbp::sa
