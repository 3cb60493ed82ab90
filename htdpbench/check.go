package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"htdp/internal/data"
	"htdp/internal/experiments"
)

// The sample of computed responses recomputed from scratch over the
// in-memory copy of the rows: the first miss of each (algo, dataset)
// pair, then every recomputeEvery-th, at most recomputePerPair each.
const (
	recomputeEvery   = 5
	recomputePerPair = 4
)

// cacheCounts are the result-store counters of GET /metrics.
type cacheCounts struct {
	hits, disk, misses, coalesced int64
}

func (b *bench) scrape() (cacheCounts, error) {
	var c cacheCounts
	r := b.e.get("/metrics")
	if r.err != nil || r.status != 200 {
		return c, fmt.Errorf("GET /metrics: status %d: %v", r.status, r.err)
	}
	fields := map[string]*int64{
		"htdp_cache_hits_total":             &c.hits,
		"htdp_cache_disk_hits_total":        &c.disk,
		"htdp_cache_misses_total":           &c.misses,
		"htdp_singleflight_coalesced_total": &c.coalesced,
	}
	sc := bufio.NewScanner(bytes.NewReader(r.body))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if p := fields[name]; ok && p != nil {
			v, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return c, fmt.Errorf("GET /metrics: %s: %w", name, err)
			}
			*p = v
		}
	}
	return c, nil
}

// check verifies what the phases received:
//   - every hit, disk and coalesced body equals the first bytes seen
//     for its key;
//   - a sample of computed responses, some of every (algo, dataset)
//     pair, equals serve.ExecuteRun (or experiments.RunSweep)
//     recomputed over the in-memory copy of the same rows, whichever
//     backend served them;
//   - the /metrics cache counters reconcile with the tiers the client
//     saw between the two scrapes.
func (b *bench) check(phases []*phase, before, after cacheCounts) {
	var all []*result
	for _, ph := range phases {
		all = append(all, ph.results...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].start < all[j].start })
	// The first bytes of a key are those its computation returned: the
	// miss, or a coalesced follower of the same computation. Client
	// clocks cannot order a leader against a follower, so the reference
	// is the computed body, not the earliest-timed one.
	first := map[string][]byte{}
	var tiers cacheCounts
	for _, r := range all {
		if !r.ok() {
			continue
		}
		switch r.tier {
		case "hit":
			tiers.hits++
		case "disk":
			tiers.disk++
		case "miss":
			tiers.misses++
		case "coalesced":
			tiers.coalesced++
		default:
			b.fails.add("%s: unknown cache tier %q", r.id, r.tier)
		}
		if _, seen := first[r.op.key()]; !seen && (r.tier == "miss" || r.tier == "coalesced") {
			first[r.op.key()] = r.body
		}
	}
	for _, r := range all {
		if !r.ok() {
			continue
		}
		ref, seen := first[r.op.key()]
		switch {
		case !seen:
			// Served from the store, yet never computed in this run.
			b.fails.add("%s: tier %s for a key this run never computed", r.id, r.tier)
		case !bytes.Equal(ref, r.body):
			b.fails.add("%s: %s body differs from the first bytes seen for its key", r.id, r.tier)
		}
	}

	// Every request makes one counted store lookup; a lookup that
	// misses and then finds a just-finished leader's bytes on its
	// recheck counts a miss and a hit, so misses may exceed the client's
	// miss+coalesced by at most the hits and disk hits it saw.
	d := cacheCounts{after.hits - before.hits, after.disk - before.disk, after.misses - before.misses, after.coalesced - before.coalesced}
	extra := d.misses - tiers.misses - tiers.coalesced
	if d.hits != tiers.hits || d.disk != tiers.disk || d.coalesced != tiers.coalesced || extra < 0 || extra > tiers.hits+tiers.disk {
		b.fails.add("/metrics does not reconcile: server hit/disk/miss/coalesced %d/%d/%d/%d, client %d/%d/%d/%d",
			d.hits, d.disk, d.misses, d.coalesced, tiers.hits, tiers.disk, tiers.misses, tiers.coalesced)
	}

	b.recompute(all)
}

// recompute checks a sample of computed responses against a fresh
// computation over the in-memory copy of the rows. The tracer is off
// by now, so these calls leave no spans.
func (b *bench) recompute(all []*result) {
	misses := map[string]int{}
	checked := 0
	for _, r := range all {
		if !r.ok() || r.tier != "miss" {
			continue
		}
		pair := r.op.kind + "/" + r.op.dataset
		n := misses[pair]
		misses[pair]++
		switch {
		case r.op.run != nil:
			if n%recomputeEvery != 0 || n/recomputeEvery >= recomputePerPair {
				continue
			}
			q := *r.op.run
			if b.opt.inject == "wrong-seed" {
				q.Seed++
			}
			body, _, _, err := b.directRun(q, "mem", r.id)
			if err != nil {
				b.fails.add("%s: recompute: %v", r.id, err)
				continue
			}
			if !bytes.Equal(body, r.body) {
				b.fails.add("%s: %s over %s differs from ExecuteRun over the in-memory rows", r.id, q.Algo, q.Dataset)
			}
		case r.op.sweep != nil:
			// One recompute per experiment: a sweep costs a whole pass.
			if n > 0 {
				continue
			}
			q := *r.op.sweep
			if b.opt.inject == "wrong-seed" {
				q.Seed++
			}
			var open func(int64) (data.Source, error)
			if q.Dataset != "" {
				open = func(int64) (data.Source, error) { return b.e.pool.Acquire("mem") }
			}
			panels, err := experiments.RunSweep(context.Background(), q, open)
			if err != nil {
				b.fails.add("%s: recompute: %v", r.id, err)
				continue
			}
			body, err := marshalSweep(q.Experiment, panels)
			if err != nil || !bytes.Equal(body, r.body) {
				b.fails.add("%s: sweep %s differs from RunSweep over the in-memory rows", r.id, q.Experiment)
			}
		}
		checked++
	}
	if checked == 0 {
		b.fails.add("no computed response was recomputed")
	}
	fmt.Fprintf(os.Stderr, "htdpbench: recomputed %d responses over %d (kind, dataset) pairs\n", checked, len(misses))
}

// corruptCacheAfter rewrites every file of the disk tier after d,
// changing one digit of each — a negative control: later disk hits
// must then fail the first-bytes check.
func (b *bench) corruptCacheAfter(d time.Duration) (stop func()) {
	t := time.AfterFunc(d, func() {
		dir := filepath.Join(b.e.dir, "cache")
		entries, err := os.ReadDir(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "htdpbench: corrupt-cache:", err)
			return
		}
		n := 0
		for _, ent := range entries {
			p := filepath.Join(dir, ent.Name())
			body, err := os.ReadFile(p)
			if err != nil {
				continue
			}
			if i := bytes.LastIndexAny(body, "0123456789"); i >= 0 {
				body[i] = '0' + (body[i]-'0'+1)%10
				if os.WriteFile(p, body, 0o644) == nil {
					n++
				}
			}
		}
		fmt.Fprintf(os.Stderr, "htdpbench: corrupt-cache: rewrote %d disk-tier entries\n", n)
	})
	return func() { t.Stop() }
}
