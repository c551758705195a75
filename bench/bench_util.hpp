#pragma once

// Shared helpers for the reproduction benches: wall-clock timing, simple
// aligned table output, and canonical array fillers. The benches print the
// rows/series the paper's figures imply; absolute numbers depend on this
// machine, but the shapes (who wins, by what factor, where crossovers fall)
// are the reproduction targets — see EXPERIMENTS.md.

#include <algorithm>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

namespace bench {

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median and quartiles of per-rep wall times, in seconds.
struct Quartiles {
  double q1 = 0;
  double median = 0;
  double q3 = 0;
};

/// The one timing helper: run every arm `warmup` times untimed, then
/// `reps` timed times, alternating the arms rep by rep so a burst of host
/// contention lands on all of them alike. Each arm reports the median and
/// quartiles of its own rep times.
inline std::vector<Quartiles> time_quartiles(
    int warmup, int reps, const std::vector<std::function<void()>>& arms) {
  for (int i = 0; i < warmup; ++i)
    for (const auto& fn : arms) fn();
  std::vector<std::vector<double>> ts(arms.size());
  for (auto& t : ts) t.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    for (std::size_t a = 0; a < arms.size(); ++a) {
      const double t0 = now_s();
      arms[a]();
      ts[a].push_back(now_s() - t0);
    }
  }
  std::vector<Quartiles> out;
  for (auto& t : ts) {
    std::sort(t.begin(), t.end());
    out.push_back({t[t.size() / 4], t[t.size() / 2], t[t.size() * 3 / 4]});
  }
  return out;
}

/// `xfer` (one rank's share of a transfer) closed by `gate`, a thread
/// barrier over every rank, so a rep timed on any rank covers the whole
/// transfer on all of them. A throwing rank drops out of the barrier, so
/// the others are not left waiting on it.
inline std::function<void()> closed_by(std::barrier<>& gate,
                                       std::function<void()> xfer) {
  return [&gate, xfer = std::move(xfer)] {
    try {
      xfer();
    } catch (...) {
      gate.arrive_and_drop();
      throw;
    }
    gate.arrive_and_wait();
  };
}

/// Median wall time of `reps` runs of `fn`, in seconds.
inline double time_median(int reps, const std::function<void()>& fn) {
  return time_quartiles(0, reps, {fn})[0].median;
}

/// Fixed-width table printer.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : widths_(headers.size()) {
    rows_.push_back(std::move(headers));
    for (std::size_t i = 0; i < rows_[0].size(); ++i)
      widths_[i] = rows_[0][i].size();
  }

  void row(std::vector<std::string> cells) {
    for (std::size_t i = 0; i < cells.size() && i < widths_.size(); ++i)
      widths_[i] = std::max(widths_[i], cells[i].size());
    rows_.push_back(std::move(cells));
  }

  void print() const {
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      std::string line;
      for (std::size_t i = 0; i < rows_[r].size(); ++i) {
        std::string c = rows_[r][i];
        c.resize(widths_[i], ' ');
        line += c;
        if (i + 1 < rows_[r].size()) line += "  ";
      }
      std::printf("%s\n", line.c_str());
      if (r == 0) {
        std::string sep;
        for (std::size_t i = 0; i < widths_.size(); ++i) {
          sep += std::string(widths_[i], '-');
          if (i + 1 < widths_.size()) sep += "  ";
        }
        std::printf("%s\n", sep.c_str());
      }
    }
  }

 private:
  std::vector<std::vector<std::string>> rows_;
  std::vector<std::size_t> widths_;
};

inline std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

inline std::string fmt_us(double seconds) {
  return fmt("%.1f", seconds * 1e6);
}

inline std::string fmt_mbs(double bytes, double seconds) {
  return fmt("%.1f", bytes / seconds / 1e6);
}

}  // namespace bench
