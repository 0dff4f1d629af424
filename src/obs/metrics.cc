#include "obs/metrics.h"

#include <bit>
#include <cmath>

#include "util/check.h"
#include "util/string_util.h"

namespace pdb {

namespace {

/// Prometheus metric names must match [a-zA-Z_:][a-zA-Z0-9_:]*; anything
/// else (dots, dashes, unicode) becomes '_'.
std::string SanitizePrometheusName(const std::string& name) {
  std::string out = name.empty() ? "_" : name;
  for (char& c : out) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  if (out[0] >= '0' && out[0] <= '9') out.insert(out.begin(), '_');
  return out;
}

/// Upper bound (inclusive) of histogram bucket i: the largest value whose
/// bit width is i, i.e. 2^i - 1. Returned as double (bucket 64 overflows
/// uint64).
double BucketUpperBound(size_t i) {
  return std::ldexp(1.0, static_cast<int>(i)) - 1.0;
}

}  // namespace

void Histogram::Record(uint64_t value) {
  size_t idx = static_cast<size_t>(std::bit_width(value));
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

double HistogramSnapshot::Mean() const {
  return count == 0 ? 0.0
                    : static_cast<double>(sum) / static_cast<double>(count);
}

double HistogramSnapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  double target = q * static_cast<double>(count);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    cumulative += buckets[i];
    if (static_cast<double>(cumulative) >= target) return BucketUpperBound(i);
  }
  return BucketUpperBound(buckets.size() - 1);
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  PDB_CHECK(gauges_.find(name) == gauges_.end() &&
            histograms_.find(name) == histograms_.end());
  auto [it, inserted] = counters_.try_emplace(name);
  if (inserted) it->second = std::make_unique<Counter>();
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  PDB_CHECK(counters_.find(name) == counters_.end() &&
            histograms_.find(name) == histograms_.end());
  auto [it, inserted] = gauges_.try_emplace(name);
  if (inserted) it->second = std::make_unique<Gauge>();
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  PDB_CHECK(counters_.find(name) == counters_.end() &&
            gauges_.find(name) == gauges_.end());
  auto [it, inserted] = histograms_.try_emplace(name);
  if (inserted) it->second = std::make_unique<Histogram>();
  return it->second.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, counter] : counters_) {
    snap.counters.emplace(name, counter->value());
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.emplace(name, gauge->value());
  }
  for (const auto& [name, hist] : histograms_) {
    HistogramSnapshot h;
    for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
      h.buckets[i] = hist->bucket(i);
    }
    h.count = hist->count();
    h.sum = hist->sum();
    snap.histograms.emplace(name, std::move(h));
  }
  return snap;
}

void MetricsSnapshot::MergeFrom(const MetricsSnapshot& other) {
  for (const auto& [name, value] : other.counters) {
    counters[name] += value;
  }
  for (const auto& [name, value] : other.gauges) {
    gauges[name] += value;
  }
  for (const auto& [name, hist] : other.histograms) {
    HistogramSnapshot& mine = histograms[name];
    for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
      mine.buckets[i] += hist.buckets[i];
    }
    mine.count += hist.count;
    mine.sum += hist.sum;
  }
}

std::string MetricsSnapshot::RenderPrometheus() const {
  std::string out;
  for (const auto& [name, value] : counters) {
    std::string n = SanitizePrometheusName(name);
    out += StrFormat("# TYPE %s counter\n", n.c_str());
    out += StrFormat("%s %llu\n", n.c_str(),
                     static_cast<unsigned long long>(value));
  }
  for (const auto& [name, value] : gauges) {
    std::string n = SanitizePrometheusName(name);
    out += StrFormat("# TYPE %s gauge\n", n.c_str());
    out += StrFormat("%s %lld\n", n.c_str(), static_cast<long long>(value));
  }
  for (const auto& [name, hist] : histograms) {
    std::string n = SanitizePrometheusName(name);
    out += StrFormat("# TYPE %s histogram\n", n.c_str());
    uint64_t cumulative = 0;
    for (size_t i = 0; i < hist.buckets.size(); ++i) {
      cumulative += hist.buckets[i];
      // Empty interior buckets are skipped to keep the exposition compact;
      // the final +Inf bucket always appears, as the format requires.
      if (hist.buckets[i] == 0 && i + 1 < hist.buckets.size()) continue;
      out += StrFormat("%s_bucket{le=\"%.17g\"} %llu\n", n.c_str(),
                       BucketUpperBound(i),
                       static_cast<unsigned long long>(cumulative));
    }
    out += StrFormat("%s_bucket{le=\"+Inf\"} %llu\n", n.c_str(),
                     static_cast<unsigned long long>(hist.count));
    out += StrFormat("%s_sum %llu\n", n.c_str(),
                     static_cast<unsigned long long>(hist.sum));
    out += StrFormat("%s_count %llu\n", n.c_str(),
                     static_cast<unsigned long long>(hist.count));
  }
  return out;
}

std::string MetricsSnapshot::RenderJson() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    out += StrFormat("%s\"%s\":%llu", first ? "" : ",",
                     JsonEscape(name).c_str(),
                     static_cast<unsigned long long>(value));
    first = false;
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : gauges) {
    out += StrFormat("%s\"%s\":%lld", first ? "" : ",",
                     JsonEscape(name).c_str(), static_cast<long long>(value));
    first = false;
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, hist] : histograms) {
    out += StrFormat(
        "%s\"%s\":{\"count\":%llu,\"sum\":%llu,\"mean\":%.6g,"
        "\"p50\":%.6g,\"p99\":%.6g,\"buckets\":[",
        first ? "" : ",", JsonEscape(name).c_str(),
        static_cast<unsigned long long>(hist.count),
        static_cast<unsigned long long>(hist.sum), hist.Mean(),
        hist.Quantile(0.5), hist.Quantile(0.99));
    first = false;
    // Sparse [bit_width, count] pairs: most of the 65 buckets are empty.
    bool first_bucket = true;
    for (size_t i = 0; i < hist.buckets.size(); ++i) {
      if (hist.buckets[i] == 0) continue;
      out += StrFormat("%s[%zu,%llu]", first_bucket ? "" : ",", i,
                       static_cast<unsigned long long>(hist.buckets[i]));
      first_bucket = false;
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

}  // namespace pdb
