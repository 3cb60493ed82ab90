package main

import (
	"sort"
)

// layerMetrics reports the traced run's per-layer metrics. Every name
// is reported on every workload; README.md says where each comes from.
func (b *bench) layerMetrics(put func(name, unit string, v float64), plain, traced *phase, phases []*phase, st phaseStats, genLate float64, attempted, httpFailed int) {
	l := &b.lay
	failed := b.fails.count()

	// The workload as a whole (its untraced half).
	put("fail_ratio", "ratio", float64(failed)/float64(max(attempted, 1)))
	put("tail_pct", "%", st.tailPct)
	put("tail_samples", "count", float64(st.tailN))
	put("gen_late_ms", "ms", genLate)
	rate, ceiling := maxRate(plain, b.wl.tailLimitMs)
	put("max_rate_rps", "1/s", rate)
	put("max_rate_ceiling", "count", boolCount(ceiling))
	// The traced half against the untraced one. The traced half both
	// records spans and makes direct layer calls from its clients
	// (probe_ms of them), and it sends another stream of request seeds,
	// so these deltas are the cost of the whole traced run, probes
	// included, not of span recording alone.
	tst := summarize(traced)
	put("trace.probed_p50_delta_ms", "ms", tst.p50-st.p50)
	put("trace.probed_throughput_drop_pct", "%", 100*(st.throughput-tst.throughput)/st.throughput)
	put("trace.probe_ms", "ms", float64(traced.probeNs.Load())/1e6)
	put("trace.spans", "count", float64(len(b.tr.spans))+float64(b.tr.dropped))

	// serve: round trips by cache tier over the traced half and the
	// replay probe.
	var hit, disk, miss []float64
	var n, hits, coalesced float64
	for _, ph := range phases[1:] {
		for _, r := range ph.results {
			if !r.ok() {
				continue
			}
			rtt := float64(r.end - r.start)
			switch r.tier {
			case "hit":
				hit = append(hit, rtt/1e3)
			case "disk":
				disk = append(disk, rtt/1e3)
			case "miss":
				miss = append(miss, rtt/1e6)
			}
		}
	}
	for _, r := range plain.results {
		n++
		switch r.tier {
		case "hit", "disk":
			hits++
		case "coalesced":
			coalesced++
		}
	}
	put("serve.hit_us", "us", median(hit))
	put("serve.disk_us", "us", median(disk))
	put("serve.miss_ms", "ms", median(miss))
	put("serve.overhead_ms", "ms", median(l.overheadMs))
	put("serve.hit_ratio", "ratio", hits/n)
	put("serve.coalesced_ratio", "ratio", coalesced/n)
	put("serve.rejected", "count", float64(httpFailed))

	// core and data, from the direct ExecuteRun calls.
	for _, algo := range algos {
		put("core."+algo+".self_ms", "ms", median(l.coreSelfMs[algo]))
		put("core."+algo+".chunk_reads", "count", median(l.coreChunks[algo]))
	}
	for _, be := range backends {
		put("data."+be+".chunk_ms", "ms", mean(l.dataChunkMs[be]))
		put("data."+be+".rowat_ms", "ms", mean(l.dataRowatMs[be]))
		put("data."+be+".rows_read", "count", mean(l.dataRows[be]))
	}
	put("data.share", "ratio", float64(l.ownDataNs)/float64(l.ownSpanNs))

	// experiments, from the direct RunSweep calls.
	total := 0.0
	for _, id := range sweepIDs {
		v := median(l.sweepMs[id])
		put("experiments."+id+".sweep_ms", "ms", v)
		total += v
	}
	put("sweep_s", "s", total/1e3)
	put("experiments.source_opens", "count", float64(l.sourceOpens.Load()))
	put("experiments.trials", "count", float64(l.trials))

	// Layer microbenchmarks.
	names := make([]string, 0, len(l.micro))
	for name := range l.micro {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		put(name, l.micro[name].Unit, l.micro[name].Value)
	}

	// Self time per layer over every span of the run.
	for _, layer := range []string{"http", "core", "data", "experiments", "kernels"} {
		put("rollup."+layer+".self_ms", "ms", float64(b.tr.selfNs[layer])/1e6)
	}
}

func boolCount(v bool) float64 {
	if v {
		return 1
	}
	return 0
}
