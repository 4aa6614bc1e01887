package main

import (
	"time"

	"repro/internal/telemetry"
)

// Helpers that turn spans and counter deltas into per-layer metrics.

// counters snapshots the process-wide telemetry counters.
func counters() map[string]int64 { return telemetry.Default.Snapshot().Counters }

// delta returns after[name] - before[name].
func delta(before, after map[string]int64, name string) float64 {
	return float64(after[name] - before[name])
}

// zeroLayers starts every per-layer metric at 0: a layer the workload
// does not reach reports no time and no work.
func zeroLayers(res *result) {
	for _, d := range perLayer {
		res.layer[d.Name] = metric{}
	}
}

// setLayer sets metric to the median duration of the spans called name,
// in the metric's unit (ms or s).
func setLayer(res *result, metricName string, spans []span, name string) {
	v := medianMs(spans, name)
	for _, d := range perLayer {
		if d.Name == metricName && d.Unit == "s" {
			v /= 1000
		}
	}
	res.layer[metricName] = metric{v, len(byName(spans, name))}
}

// decodeCounters sets the decode-side per-layer metrics from telemetry
// counter deltas over a phase that generated records records.
func decodeCounters(res *result, c0, c1 map[string]int64, records float64, maxLen int) {
	hits, misses := delta(c0, c1, "core.decode.cache.hits"), delta(c0, c1, "core.decode.cache.misses")
	res.layer["core.decode.cache_hit"] = metric{ratio(hits, hits+misses), int(hits + misses)}
	lots := delta(c0, c1, "dgan.generate.lots")
	res.layer["dgan.steps_saved_ratio"] = metric{ratio(delta(c0, c1, "dgan.generate.steps_saved"), lots*float64(maxLen)), int(lots)}
	res.layer["ip2vec.queries_per_record"] = metric{ratio(delta(c0, c1, "ip2vec.nearest.queries"), records), int(records)}
}

// selfMs is the median self time (ms) of the spans called name.
func selfMs(spans []span, name string) metric {
	var self []float64
	for i, d := range selfOf(spans) {
		if spans[i].Name == name {
			self = append(self, ms(d))
		}
	}
	if len(self) == 0 {
		return metric{}
	}
	return metric{median(self), len(self)}
}

// selfShares sets each selfLayers layer's self time in spans as a
// percentage of all spans' self time. Spans of parallel work overlap, so
// the base is busy time summed over layers, not wall time.
func selfShares(res *result, spans []span) {
	self := selfTimes(spans)
	var total time.Duration
	for _, d := range self {
		total += d
	}
	for _, l := range selfLayers {
		res.layer[l+".self_pct"] = metric{100 * ratio(float64(self[l]), float64(total)), len(spans)}
	}
}
