package serve

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// metrics is the service's one counter registry, exposed at GET
// /metrics in the Prometheus text exposition format (no client library
// — the format is plain text and the repo takes no dependencies). Every
// counter — requests, latency, cache tiers, singleflight, job expiry,
// shutdown, per-tenant — is one cell of one map under one mutex; the
// store, scheduler and singleflight group record into it and keep no
// counters of their own. Gauges are state, not counters: handleMetrics
// reads them from their owners at scrape time into the scrape's copy,
// and they render through the same loop.
type metrics struct {
	mu   sync.Mutex
	vals map[series]int64
}

// series identifies one registry cell: a family name, up to two label
// values in the family's label order, and — for htdp_requests_total —
// the status code, kept an int so recording a request builds no
// string. sum marks a summary's _sum cell (nanoseconds), which sits
// beside the _count cell of the same labels.
type series struct {
	name string
	a, b string
	code int
	sum  bool
}

// families is the one list of what /metrics exposes, in exposition
// order: adding a series is one row here plus one add call where the
// event happens. OPERATIONS.md documents every series and its alerting
// hints. Label cardinality is bounded everywhere: routes collapse to a
// closed set, tenants come from the token table (plus "anonymous").
var families = []struct {
	name, typ string
	labels    []string
}{
	{"htdp_requests_total", "counter", []string{"route", "code"}},
	{"htdp_request_latency_seconds", "summary", []string{"route"}},
	{"htdp_cache_hits_total", "counter", nil},
	{"htdp_cache_disk_hits_total", "counter", nil},
	{"htdp_cache_misses_total", "counter", nil},
	{"htdp_cache_disk_errors_total", "counter", nil},
	{"htdp_cache_entries", "gauge", nil},
	{"htdp_cache_mem_bytes", "gauge", nil},
	{"htdp_cache_disk_entries", "gauge", nil},
	{"htdp_cache_disk_bytes", "gauge", nil},
	{"htdp_singleflight_coalesced_total", "counter", nil},
	{"htdp_jobs", "gauge", []string{"status"}},
	{"htdp_jobs_expired_total", "counter", nil},
	{"htdp_shutdown_drained_total", "counter", nil},
	{"htdp_shutdown_cancelled_total", "counter", nil},
	{"htdp_tenant_requests_total", "counter", []string{"tenant"}},
	{"htdp_tenant_throttled_total", "counter", []string{"tenant", "reason"}},
	{"htdp_tenant_cancelled_over_quota_total", "counter", []string{"tenant"}},
	{"htdp_tenant_jobs", "gauge", []string{"tenant", "state"}},
	{"htdp_pool_datasets", "gauge", nil},
}

func newMetrics() *metrics {
	return &metrics{vals: make(map[series]int64)}
}

// add adds n to one counter.
func (m *metrics) add(k series, n int64) {
	m.mu.Lock()
	m.vals[k] += n
	m.mu.Unlock()
}

// get reads one counter.
func (m *metrics) get(k series) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.vals[k]
}

// observe records one served request under one lock: its route/code
// count, its latency, and — when it resolved to a tenant — the
// tenant's request count. Once a series exists this allocates nothing.
func (m *metrics) observe(route string, code int, dur time.Duration, tenant string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.vals[series{name: "htdp_requests_total", a: route, code: code}]++
	m.vals[series{name: "htdp_request_latency_seconds", a: route}]++
	m.vals[series{name: "htdp_request_latency_seconds", a: route, sum: true}] += dur.Nanoseconds()
	if tenant != "" {
		m.vals[series{name: "htdp_tenant_requests_total", a: tenant}]++
	}
}

// write merges every counter into g, the scrape's copy that already
// holds the gauges, and renders it: per family its # TYPE line, then
// its series sorted by label tuple (a family without labels prints 0
// when nothing was recorded), so scrapes are stable.
func (m *metrics) write(w io.Writer, g map[series]int64) {
	m.mu.Lock()
	for k, v := range m.vals {
		g[k] = v
	}
	m.mu.Unlock()
	byName := make(map[string][]series)
	for k := range g {
		if !k.sum {
			byName[k.name] = append(byName[k.name], k)
		}
	}
	for _, fam := range families {
		fmt.Fprintf(w, "# TYPE %s %s\n", fam.name, fam.typ)
		if len(fam.labels) == 0 {
			fmt.Fprintf(w, "%s %d\n", fam.name, g[series{name: fam.name}])
			continue
		}
		keys := byName[fam.name]
		slices.SortFunc(keys, func(x, y series) int {
			return cmp.Or(strings.Compare(x.a, y.a), strings.Compare(x.b, y.b), cmp.Compare(x.code, y.code))
		})
		for _, k := range keys {
			labels := k.render(fam.labels)
			if fam.typ == "summary" {
				sum := k
				sum.sum = true
				fmt.Fprintf(w, "%s_sum%s %g\n", fam.name, labels, float64(g[sum])/1e9)
				fmt.Fprintf(w, "%s_count%s %d\n", fam.name, labels, g[k])
				continue
			}
			fmt.Fprintf(w, "%s%s %d\n", fam.name, labels, g[k])
		}
	}
}

// render formats the series' label set, values %q-quoted.
func (k series) render(names []string) string {
	vals := [2]string{k.a, k.b}
	if k.code != 0 {
		vals[1] = strconv.Itoa(k.code)
	}
	pairs := make([]string, len(names))
	for i, name := range names {
		pairs[i] = fmt.Sprintf("%s=%q", name, vals[i])
	}
	return "{" + strings.Join(pairs, ",") + "}"
}
