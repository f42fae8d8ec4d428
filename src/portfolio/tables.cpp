#include "portfolio/tables.hpp"

#include <iomanip>
#include <ostream>

namespace manthan::portfolio {

void print_cactus(std::ostream& out,
                  const std::vector<std::string>& series_names,
                  const std::vector<std::vector<double>>& series) {
  out << "# cactus: column k = cumulative time at which the k-th instance"
         " is solved\n";
  out << std::left << std::setw(10) << "solved";
  for (const std::string& name : series_names) {
    out << std::right << std::setw(18) << name;
  }
  out << '\n';
  std::size_t max_len = 0;
  for (const auto& s : series) max_len = std::max(max_len, s.size());
  for (std::size_t k = 0; k < max_len; ++k) {
    out << std::left << std::setw(10) << (k + 1);
    for (const auto& s : series) {
      if (k < s.size()) {
        out << std::right << std::setw(18) << std::fixed
            << std::setprecision(4) << s[k];
      } else {
        out << std::right << std::setw(18) << "-";
      }
    }
    out << '\n';
  }
  out << "# totals:";
  for (std::size_t i = 0; i < series.size(); ++i) {
    out << ' ' << series_names[i] << '=' << series[i].size();
  }
  out << '\n';
}

void print_scatter(std::ostream& out, const std::string& x_name,
                   const std::string& y_name,
                   const std::vector<ScatterPoint>& points,
                   double timeout_value) {
  out << "# scatter: " << x_name << " (x) vs " << y_name << " (y); "
      << timeout_value << " marks timeout\n";
  out << std::left << std::setw(28) << "instance" << std::right
      << std::setw(14) << x_name.substr(0, 13) << std::setw(14)
      << y_name.substr(0, 13) << '\n';
  std::size_t x_wins = 0;
  std::size_t y_wins = 0;
  std::size_t x_only = 0;
  std::size_t y_only = 0;
  for (const ScatterPoint& p : points) {
    out << std::left << std::setw(28) << p.instance << std::right
        << std::setw(14) << std::fixed << std::setprecision(4) << p.x_seconds
        << std::setw(14) << p.y_seconds << '\n';
    const bool xs = p.x_seconds < timeout_value;
    const bool ys = p.y_seconds < timeout_value;
    if (xs && (!ys || p.x_seconds < p.y_seconds)) ++x_wins;
    if (ys && (!xs || p.y_seconds < p.x_seconds)) ++y_wins;
    if (xs && !ys) ++x_only;
    if (ys && !xs) ++y_only;
  }
  out << "# " << x_name << " faster on " << x_wins << " (exclusive "
      << x_only << "), " << y_name << " faster on " << y_wins
      << " (exclusive " << y_only << ") of " << points.size()
      << " instances\n";
}

void print_solved_counts(std::ostream& out, const SolvedCounts& c) {
  out << "# solved-counts summary (paper §6 headline numbers)\n";
  out << "total instances:                 " << c.total_instances << '\n';
  out << "solved by HqsLite:               " << c.solved_hqs << '\n';
  out << "solved by PedantLite:            " << c.solved_pedant << '\n';
  out << "solved by Manthan3:              " << c.solved_manthan3 << '\n';
  out << "VBS(HqsLite,PedantLite):         " << c.vbs_without_manthan3
      << '\n';
  out << "VBS(+Manthan3):                  " << c.vbs_with_manthan3 << '\n';
  out << "VBS improvement by Manthan3:     "
      << c.vbs_with_manthan3 - c.vbs_without_manthan3 << '\n';
  out << "Manthan3 unique solves:          " << c.manthan3_unique << '\n';
  out << "Manthan3 strictly fastest on:    " << c.manthan3_fastest << '\n';
  out << "Manthan3 solves, HqsLite not:    " << c.manthan3_not_hqs << '\n';
  out << "Manthan3 solves, PedantLite not: " << c.manthan3_not_pedant
      << '\n';
  out << "baselines solve, Manthan3 not:   " << c.others_not_manthan3
      << '\n';
  out << "  of which Manthan3 incomplete:  " << c.manthan3_incomplete
      << '\n';
  out << "  of which Manthan3 timed out:   " << c.manthan3_timeout << '\n';
  out << "instances proven False:          " << c.unrealizable_detected
      << '\n';
}

void print_run_records(std::ostream& out,
                       const std::vector<RunRecord>& records) {
  out << std::left << std::setw(28) << "instance" << std::setw(14)
      << "family" << std::setw(12) << "engine" << std::setw(14) << "status"
      << std::setw(6) << "cert" << std::right << std::setw(12) << "seconds"
      << '\n';
  for (const RunRecord& r : records) {
    out << std::left << std::setw(28) << r.instance << std::setw(14)
        << r.family << std::setw(12) << engine::engine_name(r.engine)
        << std::setw(14) << engine::status_name(r.status) << std::setw(6)
        << (r.solved() ? "yes" : (r.status ==
                                  core::SynthesisStatus::kRealizable
                                      ? "NO!"
                                      : "-"))
        << std::right << std::setw(12) << std::fixed << std::setprecision(4)
        << r.seconds << '\n';
  }
}

}  // namespace manthan::portfolio
