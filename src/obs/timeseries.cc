#include "obs/timeseries.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace flexos {
namespace obs {

bool GlobMatch(std::string_view pattern, std::string_view text) {
  // Iterative star-backtracking: '*' matches any (possibly empty) run.
  size_t pi = 0;
  size_t ti = 0;
  size_t star = std::string_view::npos;
  size_t match = 0;
  while (ti < text.size()) {
    if (pi < pattern.size() && pattern[pi] == '*') {
      star = pi++;
      match = ti;
    } else if (pi < pattern.size() && pattern[pi] == text[ti]) {
      ++pi;
      ++ti;
    } else if (star != std::string_view::npos) {
      pi = star + 1;
      ti = ++match;
    } else {
      return false;
    }
  }
  while (pi < pattern.size() && pattern[pi] == '*') {
    ++pi;
  }
  return pi == pattern.size();
}

std::string_view SloStatName(SloStat stat) {
  switch (stat) {
    case SloStat::kP50:
      return "p50";
    case SloStat::kP90:
      return "p90";
    case SloStat::kP99:
      return "p99";
    case SloStat::kMean:
      return "mean";
    case SloStat::kMax:
      return "max";
    case SloStat::kCount:
      return "count";
    case SloStat::kSum:
      return "sum";
    case SloStat::kValue:
      return "value";
  }
  return "?";
}

std::string_view SloOpName(SloOp op) {
  switch (op) {
    case SloOp::kLt:
      return "<";
    case SloOp::kLe:
      return "<=";
    case SloOp::kGt:
      return ">";
    case SloOp::kGe:
      return ">=";
  }
  return "?";
}

namespace {

bool ParseStat(std::string_view token, SloStat* out) {
  if (token == "p50") {
    *out = SloStat::kP50;
  } else if (token == "p90") {
    *out = SloStat::kP90;
  } else if (token == "p99") {
    *out = SloStat::kP99;
  } else if (token == "mean") {
    *out = SloStat::kMean;
  } else if (token == "max") {
    *out = SloStat::kMax;
  } else if (token == "count") {
    *out = SloStat::kCount;
  } else if (token == "sum") {
    *out = SloStat::kSum;
  } else if (token == "value") {
    *out = SloStat::kValue;
  } else {
    return false;
  }
  return true;
}

bool ParseOp(std::string_view token, SloOp* out) {
  if (token == "<") {
    *out = SloOp::kLt;
  } else if (token == "<=") {
    *out = SloOp::kLe;
  } else if (token == ">") {
    *out = SloOp::kGt;
  } else if (token == ">=") {
    *out = SloOp::kGe;
  } else {
    return false;
  }
  return true;
}

// "good" direction of the spec; a window failing this is a violation.
bool Satisfies(SloOp op, double measured, double threshold) {
  switch (op) {
    case SloOp::kLt:
      return measured < threshold;
    case SloOp::kLe:
      return measured <= threshold;
    case SloOp::kGt:
      return measured > threshold;
    case SloOp::kGe:
      return measured >= threshold;
  }
  return true;
}

}  // namespace

bool ParseSloSpec(std::string_view text, SloSpec* out, std::string* error) {
  // Whitespace-split into exactly four tokens.
  std::vector<std::string_view> tokens;
  size_t pos = 0;
  while (pos < text.size()) {
    while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t')) {
      ++pos;
    }
    size_t end = pos;
    while (end < text.size() && text[end] != ' ' && text[end] != '\t') {
      ++end;
    }
    if (end > pos) {
      tokens.push_back(text.substr(pos, end - pos));
    }
    pos = end;
  }
  if (tokens.size() != 4) {
    *error = "slo wants: <metric-pattern> <stat> <op> <value>";
    return false;
  }
  SloSpec spec;
  spec.pattern = std::string(tokens[0]);
  if (!ParseStat(tokens[1], &spec.stat)) {
    *error = "unknown slo stat (p50|p90|p99|mean|max|count|sum|value): " +
             std::string(tokens[1]);
    return false;
  }
  if (!ParseOp(tokens[2], &spec.op)) {
    *error = "unknown slo comparator (<|<=|>|>=): " + std::string(tokens[2]);
    return false;
  }
  const std::string value(tokens[3]);
  char* end = nullptr;
  spec.threshold = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0' || !std::isfinite(spec.threshold)) {
    *error = "bad slo threshold: " + value;
    return false;
  }
  *out = std::move(spec);
  return true;
}

std::string SloSpecToString(const SloSpec& spec) {
  char threshold[40];
  std::snprintf(threshold, sizeof(threshold), "%.10g", spec.threshold);
  std::string out = spec.pattern;
  out += ' ';
  out += SloStatName(spec.stat);
  out += ' ';
  out += SloOpName(spec.op);
  out += ' ';
  out += threshold;
  return out;
}

void TimeSeries::Enable(uint64_t window_cycles, size_t ring_windows) {
  if (window_cycles == 0 || registry_ == nullptr) {
    // Zero-length windows would close at every poll; stay disabled.
    return;
  }
  window_cycles_ = window_cycles;
  ring_.clear();
  ring_.resize(ring_windows == 0 ? 1 : ring_windows);
  seq_ = 0;
  violations_total_ = 0;
  last_close_ = 0;
  next_close_ = window_cycles_;
  enabled_ = true;
  binding_ = nullptr;  // Force a fresh binding (ring slots were resized).
  Rebind();
  // Baseline at enable time: accrual from before windowing started (boot,
  // config build, bench warmup) belongs to no window. Metrics registered
  // *after* this keep the start-from-zero rebind rule — their whole life
  // fits inside the windowed era.
  for (size_t i = 0; i < binding_->counters.size(); ++i) {
    prev_counters_[i] = binding_->counters[i]->value();
  }
  for (size_t i = 0; i < binding_->hists.size(); ++i) {
    prev_hists_[i] = *binding_->hists[i];
  }
}

void TimeSeries::AddWatchdog(const SloSpec& spec) {
  specs_.push_back(spec);
  violation_counters_.push_back(
      registry_ == nullptr
          ? nullptr
          : &registry_->GetCounter("slo.violations." + spec.EffectiveName()));
  if (enabled_) {
    Rebind();  // Re-resolve targets; also binds the new violation counter.
  }
}

void TimeSeries::Rebind() {
  auto binding = std::make_shared<Binding>();
  for (const MetricsRegistry::Entry& entry : registry_->Entries()) {
    if (entry.counter != nullptr) {
      binding->counter_names.emplace_back(entry.name);
      binding->counters.push_back(entry.counter);
    } else if (entry.gauge != nullptr) {
      binding->gauge_names.emplace_back(entry.name);
      binding->gauges.push_back(entry.gauge);
    } else if (entry.histogram != nullptr) {
      binding->hist_names.emplace_back(entry.name);
      binding->hists.push_back(entry.histogram);
    }
  }

  // Carry the previous capture's cumulative values across by name (both
  // name lists are sorted), so a rebind never double-counts. Metrics new
  // to this binding start from zero: everything they accrued since
  // registration belongs to the window being closed.
  std::vector<uint64_t> prev_counters(binding->counters.size(), 0);
  std::vector<LatencyHistogram> prev_hists(binding->hists.size());
  if (binding_ != nullptr) {
    for (size_t i = 0, j = 0; i < binding_->counter_names.size() &&
                              j < binding->counter_names.size();) {
      const int cmp =
          binding_->counter_names[i].compare(binding->counter_names[j]);
      if (cmp == 0) {
        prev_counters[j++] = prev_counters_[i++];
      } else if (cmp < 0) {
        ++i;
      } else {
        ++j;
      }
    }
    for (size_t i = 0, j = 0;
         i < binding_->hist_names.size() && j < binding->hist_names.size();) {
      const int cmp = binding_->hist_names[i].compare(binding->hist_names[j]);
      if (cmp == 0) {
        prev_hists[j++] = prev_hists_[i++];
      } else if (cmp < 0) {
        ++i;
      } else {
        ++j;
      }
    }
  }

  // Resolve watchdog targets against this binding. Percentile-family stats
  // watch histograms; "value" watches counters (window delta) and gauges
  // (instantaneous).
  binding->slo_targets.resize(specs_.size());
  for (size_t s = 0; s < specs_.size(); ++s) {
    Binding::SloTargets& targets = binding->slo_targets[s];
    const SloSpec& spec = specs_[s];
    if (spec.stat == SloStat::kValue) {
      for (size_t k = 0; k < binding->counter_names.size(); ++k) {
        if (GlobMatch(spec.pattern, binding->counter_names[k])) {
          targets.counter_idx.push_back(k);
        }
      }
      for (size_t k = 0; k < binding->gauge_names.size(); ++k) {
        if (GlobMatch(spec.pattern, binding->gauge_names[k])) {
          targets.gauge_idx.push_back(k);
        }
      }
    } else {
      for (size_t k = 0; k < binding->hist_names.size(); ++k) {
        if (GlobMatch(spec.pattern, binding->hist_names[k])) {
          targets.hist_idx.push_back(k);
        }
      }
    }
  }

  binding_ = std::move(binding);
  prev_counters_ = std::move(prev_counters);
  prev_hists_ = std::move(prev_hists);
  bound_metric_count_ = registry_->size();
  // Pre-size every ring slot: Capture's resize calls then stay within
  // capacity, keeping the steady-state capture path allocation-free.
  for (Window& window : ring_) {
    window.counter_deltas.reserve(binding_->counters.size());
    window.gauge_values.reserve(binding_->gauges.size());
    window.hist_deltas.reserve(binding_->hists.size());
  }
}

void TimeSeries::Capture(uint64_t now_cycles) {
  if (registry_->size() != bound_metric_count_) {
    Rebind();  // New metrics appeared mid-window (e.g. lazy route resolve).
  }
  // Latest boundary at or before now. A multi-window idle jump closes one
  // window spanning [last_close_, that boundary].
  const uint64_t end = now_cycles - (now_cycles % window_cycles_);

  const Binding& binding = *binding_;
  Window& window = ring_[seq_ % ring_.size()];
  ++seq_;
  window.seq = seq_;
  window.start_cycles = last_close_;
  window.end_cycles = end;
  window.binding = binding_;
  window.counter_deltas.resize(binding.counters.size());
  for (size_t i = 0; i < binding.counters.size(); ++i) {
    const uint64_t cur = binding.counters[i]->value();
    // A counter that went backwards was Reset(); treat it as fresh.
    window.counter_deltas[i] =
        cur >= prev_counters_[i] ? cur - prev_counters_[i] : cur;
    prev_counters_[i] = cur;
  }
  window.gauge_values.resize(binding.gauges.size());
  for (size_t i = 0; i < binding.gauges.size(); ++i) {
    window.gauge_values[i] = binding.gauges[i]->value();
  }
  window.hist_deltas.resize(binding.hists.size());
  for (size_t i = 0; i < binding.hists.size(); ++i) {
    window.hist_deltas[i] =
        LatencyHistogram::Delta(*binding.hists[i], prev_hists_[i]);
    prev_hists_[i] = *binding.hists[i];
  }
  last_close_ = end;
  next_close_ = end + window_cycles_;
  EvaluateWatchdogs(window);
  if (window_hook_) {
    window_hook_(MakeSnapshot(window));
  }
}

void TimeSeries::FinalizeTail(uint64_t now_cycles) {
  if (!enabled_ || now_cycles <= last_close_) {
    return;
  }
  // Same capture, but the window ends at `now` instead of a boundary, so
  // end-of-run totals cover the full run. The next boundary stays aligned.
  const uint64_t saved_window = window_cycles_;
  window_cycles_ = 1;  // Makes every cycle a boundary for this one capture.
  Capture(now_cycles);
  window_cycles_ = saved_window;
  next_close_ = (now_cycles / window_cycles_ + 1) * window_cycles_;
}

void TimeSeries::EvaluateWatchdogs(const Window& window) {
  const Binding& binding = *window.binding;
  for (size_t s = 0; s < specs_.size(); ++s) {
    const SloSpec& spec = specs_[s];
    const Binding::SloTargets& targets = binding.slo_targets[s];
    for (const size_t k : targets.counter_idx) {
      const double measured = static_cast<double>(window.counter_deltas[k]);
      if (!Satisfies(spec.op, measured, spec.threshold)) {
        ReportViolation(window, s, binding.counter_names[k], measured);
      }
    }
    for (const size_t k : targets.gauge_idx) {
      const double measured = static_cast<double>(window.gauge_values[k]);
      if (!Satisfies(spec.op, measured, spec.threshold)) {
        ReportViolation(window, s, binding.gauge_names[k], measured);
      }
    }
    for (const size_t k : targets.hist_idx) {
      const LatencyHistogram& hist = window.hist_deltas[k];
      if (hist.count() == 0) {
        continue;  // No samples this window: nothing to judge.
      }
      double measured = 0;
      switch (spec.stat) {
        case SloStat::kP50:
          measured = static_cast<double>(hist.Percentile(50));
          break;
        case SloStat::kP90:
          measured = static_cast<double>(hist.Percentile(90));
          break;
        case SloStat::kP99:
          measured = static_cast<double>(hist.Percentile(99));
          break;
        case SloStat::kMean:
          measured = hist.Mean();
          break;
        case SloStat::kMax:
          measured = static_cast<double>(hist.max());
          break;
        case SloStat::kCount:
          measured = static_cast<double>(hist.count());
          break;
        case SloStat::kSum:
          measured = static_cast<double>(hist.sum());
          break;
        case SloStat::kValue:
          continue;  // Resolved against counters/gauges only.
      }
      if (!Satisfies(spec.op, measured, spec.threshold)) {
        ReportViolation(window, s, binding.hist_names[k], measured);
      }
    }
  }
}

void TimeSeries::ReportViolation(const Window& window, size_t spec_idx,
                                 const std::string& metric, double measured) {
  ++violations_total_;
  if (violation_counters_[spec_idx] != nullptr) {
    violation_counters_[spec_idx]->Add();
  }
  if (tracer_ != nullptr) {
    tracer_->RecordInstant(TraceCat::kSlo, "slo.violation", /*tid=*/0,
                           /*a0=*/window.seq,
                           /*a1=*/static_cast<uint64_t>(measured));
  }
  if (hook_) {
    SloViolation violation;
    violation.slo_name = specs_[spec_idx].EffectiveName();
    violation.metric = metric;
    violation.window_seq = window.seq;
    violation.measured = measured;
    violation.threshold = specs_[spec_idx].threshold;
    hook_(violation);
  }
}

WindowSnapshot TimeSeries::MakeSnapshot(const Window& window) const {
  WindowSnapshot snap;
  snap.seq = window.seq;
  snap.start_cycles = window.start_cycles;
  snap.end_cycles = window.end_cycles;
  const Binding& binding = *window.binding;
  for (size_t i = 0; i < window.counter_deltas.size(); ++i) {
    if (window.counter_deltas[i] != 0) {
      snap.counters.push_back(
          {binding.counter_names[i], window.counter_deltas[i]});
    }
  }
  for (size_t i = 0; i < window.gauge_values.size(); ++i) {
    if (window.gauge_values[i] != 0) {
      snap.gauges.push_back({binding.gauge_names[i], window.gauge_values[i]});
    }
  }
  for (size_t i = 0; i < window.hist_deltas.size(); ++i) {
    if (window.hist_deltas[i].count() != 0) {
      snap.histograms.push_back({binding.hist_names[i], window.hist_deltas[i]});
    }
  }
  return snap;
}

std::vector<WindowSnapshot> TimeSeries::Snapshot() const {
  std::vector<WindowSnapshot> out;
  const uint64_t retained =
      std::min<uint64_t>(seq_, static_cast<uint64_t>(ring_.size()));
  out.reserve(retained);
  for (uint64_t s = seq_ - retained + 1; s <= seq_ && retained > 0; ++s) {
    out.push_back(MakeSnapshot(ring_[(s - 1) % ring_.size()]));
  }
  return out;
}

}  // namespace obs
}  // namespace flexos
