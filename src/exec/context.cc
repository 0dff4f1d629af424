#include "exec/context.h"

#include "exec/thread_pool.h"
#include "util/string_util.h"

namespace pdb {

std::string ExecReport::ToString() const {
  std::string s = StrFormat(
      "%d thread%s, %llu task%s, %llu samples, %llu cache hits", num_threads,
      num_threads == 1 ? "" : "s", static_cast<unsigned long long>(tasks_run),
      tasks_run == 1 ? "" : "s",
      static_cast<unsigned long long>(samples_drawn),
      static_cast<unsigned long long>(cache_hits));
  if (dpll_decisions > 0) {
    s += StrFormat(", %llu DPLL decisions",
                   static_cast<unsigned long long>(dpll_decisions));
  }
  if (dpll_component_splits > 0) {
    s += StrFormat(", %llu component splits",
                   static_cast<unsigned long long>(dpll_component_splits));
  }
  if (mc_batches > 0) {
    s += StrFormat(", %llu MC batches",
                   static_cast<unsigned long long>(mc_batches));
  }
  if (wmc_shared_hits + wmc_shared_misses > 0) {
    s += StrFormat(", %llu/%llu shared WMC cache hits",
                   static_cast<unsigned long long>(wmc_shared_hits),
                   static_cast<unsigned long long>(wmc_shared_hits +
                                                   wmc_shared_misses));
  }
  if (wmc_shared_inserts > 0) {
    s += StrFormat(", %llu shared WMC inserts",
                   static_cast<unsigned long long>(wmc_shared_inserts));
  }
  if (wmc_shared_evictions > 0) {
    s += StrFormat(", %llu shared WMC evictions",
                   static_cast<unsigned long long>(wmc_shared_evictions));
  }
  if (wmc_shared_bytes > 0) {
    s += StrFormat(", %llu shared WMC bytes",
                   static_cast<unsigned long long>(wmc_shared_bytes));
  }
  if (lineage_matches > 0) {
    s += StrFormat(", %llu lineage matches",
                   static_cast<unsigned long long>(lineage_matches));
  }
  if (lineage_nodes > 0) {
    s += StrFormat(", %llu lineage nodes",
                   static_cast<unsigned long long>(lineage_nodes));
  }
  if (index_builds + index_cache_hits > 0) {
    s += StrFormat(", %llu/%llu index cache hits",
                   static_cast<unsigned long long>(index_cache_hits),
                   static_cast<unsigned long long>(index_cache_hits +
                                                   index_builds));
  }
  if (shed_tasks > 0) {
    s += StrFormat(", %llu shed tasks",
                   static_cast<unsigned long long>(shed_tasks));
  }
  if (admission_rejected > 0) {
    s += StrFormat(", %llu admission rejections",
                   static_cast<unsigned long long>(admission_rejected));
  }
  if (deadline_exceeded) s += ", deadline exceeded";
  if (cancelled) s += ", cancelled";
  return s;
}

void ExecContext::SetDeadline(uint64_t ms) {
  if (ms == 0) {
    ClearDeadline();
    return;
  }
  Clock::time_point expiry = Clock::now() + std::chrono::milliseconds(ms);
  deadline_ns_.store(std::chrono::duration_cast<std::chrono::nanoseconds>(
                         expiry.time_since_epoch())
                         .count(),
                     std::memory_order_relaxed);
  deadline_hit_.store(false, std::memory_order_relaxed);
}

void ExecContext::ClearDeadline() {
  deadline_ns_.store(0, std::memory_order_relaxed);
  deadline_hit_.store(false, std::memory_order_relaxed);
}

bool ExecContext::DeadlineExceeded() {
  if (deadline_hit_.load(std::memory_order_relaxed)) return true;
  int64_t deadline = deadline_ns_.load(std::memory_order_relaxed);
  if (deadline == 0) return false;
  int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now().time_since_epoch())
                    .count();
  if (now < deadline) return false;
  deadline_hit_.store(true, std::memory_order_relaxed);
  deadline_ever_hit_.store(true, std::memory_order_relaxed);
  return true;
}

ExecReport ExecContext::Report() {
  DeadlineExceeded();  // refresh the latch before snapshotting
  ExecReport report;
  report.tasks_run = tasks_run_.load(std::memory_order_relaxed);
  report.samples_drawn = samples_drawn_.load(std::memory_order_relaxed);
  report.mc_batches = mc_batches_.load(std::memory_order_relaxed);
  report.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  report.dpll_decisions = dpll_decisions_.load(std::memory_order_relaxed);
  report.dpll_component_splits =
      dpll_component_splits_.load(std::memory_order_relaxed);
  report.wmc_shared_hits = wmc_shared_hits_.load(std::memory_order_relaxed);
  report.wmc_shared_misses =
      wmc_shared_misses_.load(std::memory_order_relaxed);
  report.lineage_matches = lineage_matches_.load(std::memory_order_relaxed);
  report.lineage_nodes = lineage_nodes_.load(std::memory_order_relaxed);
  report.index_builds = index_builds_.load(std::memory_order_relaxed);
  report.index_cache_hits =
      index_cache_hits_.load(std::memory_order_relaxed);
  report.shed_tasks = shed_tasks_.load(std::memory_order_relaxed);
  report.num_threads =
      pool_ ? static_cast<int>(pool_->num_threads()) : 1;
  report.cancelled = cancelled();
  report.deadline_exceeded =
      deadline_ever_hit_.load(std::memory_order_relaxed);
  return report;
}

}  // namespace pdb
