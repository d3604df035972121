#pragma once
/// \file workload_source.hpp
/// Pluggable workload ingestion: the `WorkloadSource` provider API.
///
/// Every consumer of application workloads — the Explorer, `nocmap sweep`,
/// `nocmap bench --scale`, the test harnesses — historically drew from the
/// one compiled-in Table-1 suite (suite.cpp). A `WorkloadSource` abstracts
/// "a deterministic, indexable stream of applications" in the style of the
/// codes-workload component's load/get-next API: a source has a display
/// name, provenance metadata describing where its applications came from,
/// a size, and `app(i)` — a *pure function* of the index, so iteration is
/// reproducible for any thread or batch count.
///
/// Four backends (docs/workloads.md):
///  * the compiled-in Table-1 suite (`suite`),
///  * TGFF task-graph files (`file:app.tgff`, tgff.hpp),
///  * the CDCG JSON / CSV interchange format (`file:apps.json|.csv`,
///    interchange.hpp),
///  * synthetic populations with controlled statistics (`gen:SPEC`,
///    synthetic.hpp).
///
/// `make_workload_source()` parses the scheme-prefixed spec strings the CLI
/// accepts as `--workload`; unknown schemes are rejected with a clear error.

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "nocmap/graph/cdcg.hpp"

namespace nocmap::workload {

/// One application as delivered by a source: the CDCG plus the board it
/// targets. `noc_width * noc_height >= cdcg.num_cores()` always holds for
/// apps produced by a validated source.
struct WorkloadApp {
  std::string name;
  std::uint32_t noc_width = 0;
  std::uint32_t noc_height = 0;
  graph::Cdcg cdcg;

  std::string noc_size_label() const {
    return std::to_string(noc_width) + " x " + std::to_string(noc_height);
  }
};

/// Ingestion failure with position information. Every parser in the
/// ingestion subsystem (TGFF, JSON, CSV) reports malformed input through
/// this type — never through a crash, and never by silently clamping a
/// value — so callers (and the fuzz suite) can rely on `line()` naming the
/// 1-based input line and `field()` the offending field or record.
class ParseError : public std::runtime_error {
 public:
  ParseError(const std::string& source, std::size_t line,
             const std::string& field, const std::string& message)
      : std::runtime_error(format(source, line, field, message)),
        line_(line),
        field_(field) {}

  /// 1-based line of the offending input.
  std::size_t line() const { return line_; }
  /// The field or record the error names (may be empty for lexical errors).
  const std::string& field() const { return field_; }

 private:
  static std::string format(const std::string& source, std::size_t line,
                            const std::string& field,
                            const std::string& message) {
    std::string out = source + ":" + std::to_string(line) + ": ";
    if (!field.empty()) out += "field '" + field + "': ";
    return out + message;
  }

  std::size_t line_;
  std::string field_;
};

/// Abstract provider of a deterministic application stream.
class WorkloadSource {
 public:
  virtual ~WorkloadSource() = default;

  /// Display name, e.g. "Table-1 suite", "file:apps.json", "gen:apps=200".
  virtual std::string name() const = 0;

  /// Provenance metadata: where the applications come from, in one line —
  /// e.g. "compiled-in (workload/suite.cpp)" or
  /// "parsed from apps.json (nocmap-workloads schema 1)".
  virtual std::string provenance() const = 0;

  /// Number of applications. Finite for every backend; synthetic
  /// populations report the spec's app count.
  virtual std::size_t size() const = 0;

  /// The i-th application. A pure function of (source construction
  /// parameters, index): calling it twice, from any thread, in any batch
  /// split, yields bitwise-identical applications. Throws
  /// std::out_of_range for index >= size().
  virtual WorkloadApp app(std::size_t index) const = 0;

  /// All applications in index order. Convenience for exporters and
  /// `bench --scale --workload`.
  std::vector<WorkloadApp> all() const;

  /// Index of the application named `name`, or size() if absent.
  std::size_t find(const std::string& name) const;
};

/// The compiled-in Table-1 suite (suite.cpp) behind the source API. The 18
/// applications appear in Table-1 order with their paper board sizes; this
/// is the exact stream `nocmap sweep --workload suite` consumes, so a
/// canonical export of this source re-imported through `file:` reproduces
/// the compiled-in results.
class SuiteSource : public WorkloadSource {
 public:
  SuiteSource();

  std::string name() const override { return "Table-1 suite"; }
  std::string provenance() const override {
    return "compiled-in (workload/suite.cpp, Marcon et al. Table 1)";
  }
  std::size_t size() const override { return apps_.size(); }
  WorkloadApp app(std::size_t index) const override;

 private:
  std::vector<WorkloadApp> apps_;
};

/// A materialized source: applications loaded from a file (or built in
/// memory), with caller-supplied name and provenance.
class MemorySource : public WorkloadSource {
 public:
  MemorySource(std::string name, std::string provenance,
               std::vector<WorkloadApp> apps)
      : name_(std::move(name)),
        provenance_(std::move(provenance)),
        apps_(std::move(apps)) {}

  std::string name() const override { return name_; }
  std::string provenance() const override { return provenance_; }
  std::size_t size() const override { return apps_.size(); }
  WorkloadApp app(std::size_t index) const override;

 private:
  std::string name_;
  std::string provenance_;
  std::vector<WorkloadApp> apps_;
};

/// Smallest near-square board fitting `cores` cores (at least two tiles).
/// Shared by every backend that must invent a board for an application that
/// does not declare one (TGFF, synthetic populations, `--workload random`).
std::pair<std::uint32_t, std::uint32_t> fit_board(std::size_t cores);

/// Validate one application against the source contract: a structurally
/// valid, acyclic, connected CDCG whose cores fit the declared board.
/// Throws ParseError with the given source name and line on failure.
void validate_app(const WorkloadApp& app, const std::string& source,
                  std::size_t line);

/// Parse a `--workload` source spec:
///
///   suite            the compiled-in Table-1 suite
///   file:PATH        a workload file; format by extension:
///                    .json / .csv (interchange.hpp) or .tgff (tgff.hpp)
///   gen:SPEC         a synthetic population (synthetic.hpp spec grammar)
///
/// Unknown schemes ("warp:x"), unknown file extensions and malformed specs
/// throw std::invalid_argument with a message naming the accepted schemes;
/// file parse failures propagate as ParseError.
std::unique_ptr<WorkloadSource> make_workload_source(const std::string& spec);

/// True if `spec` is scheme-addressed (contains ':') or names the suite —
/// i.e. make_workload_source() is the right resolver for it, as opposed to
/// the built-in workload names ("paper-example", "romberg-v1", ...).
bool is_source_spec(const std::string& spec);

}  // namespace nocmap::workload
