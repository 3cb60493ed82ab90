package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/metrics_golden.txt")

// TestMetricsExpositionGolden pins the whole /metrics body — family
// order, # TYPE lines, label order and quoting, zero-valued series —
// against testdata/metrics_golden.txt. A fixed request sequence gives
// every labelled family at least one series: two token tenants, a miss
// and a memory hit, an async follower coalescing onto a queued leader,
// an unknown route, a 401, a quota 429, a rate-limit 429 (the
// limiter's clock is frozen), a DELETE of a queued job, a token
// revocation, and a TTL expiry (the scheduler's clock is advanced).
// Only the latency _sum values, which are wall-clock, are masked.
// Regenerate with `go test ./internal/serve -run TestMetricsExpositionGolden -update`.
func TestMetricsExpositionGolden(t *testing.T) {
	tokens := writeTokenFile(t, "tok-alice alice\ntok-bob bob\n")
	ts, srv, _ := newTestServer(t, Options{
		Workers: 1, QueueDepth: 16, TenantQueue: 1, JobTTL: time.Minute,
		TenantRate: 1, TenantBurst: 5, TokensPath: tokens,
	})
	t0 := time.Unix(1000, 0)
	srv.limiter.now = func() time.Time { return t0 }
	var (
		clockMu sync.Mutex
		now     = t0
	)
	srv.sched.now = func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return now
	}

	do := func(method, path, token string, body any, want int) []byte {
		t.Helper()
		var rd io.Reader
		if body != nil {
			b, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			rd = bytes.NewReader(b)
		}
		code, _, resp := authDo(t, method, ts.URL+path, token, rd)
		if code != want {
			t.Fatalf("%s %s = %d %q, want %d", method, path, code, resp, want)
		}
		return resp
	}
	run := func(seed int64, async bool) RunRequest {
		return RunRequest{Dataset: "csv", Algo: "fw", Seed: seed, T: 3, Async: async}
	}
	jobID := func(doc []byte) string {
		t.Helper()
		var st JobStatus
		if err := json.Unmarshal(doc, &st); err != nil {
			t.Fatal(err)
		}
		return st.ID
	}

	do("GET", "/v1/experiments", "", nil, 401)
	do("GET", "/nope", "tok-alice", nil, 404)
	do("POST", "/v1/run", "tok-alice", run(1, false), 200) // miss
	do("POST", "/v1/run", "tok-bob", run(1, false), 200)   // memory hit

	// Occupy the single worker so the async submissions below stay queued.
	started := make(chan struct{})
	release := make(chan struct{})
	if _, err := srv.sched.submit("run", "", "bob", 1, 0, func(context.Context, *job) ([]byte, error) {
		close(started)
		<-release
		return []byte("x\n"), nil
	}); err != nil {
		t.Fatal(err)
	}
	<-started
	queued := jobID(do("POST", "/v1/run", "tok-alice", run(2, true), 202))
	do("POST", "/v1/run", "tok-alice", run(3, true), 429) // quota: alice already has one queued
	do("DELETE", "/v1/jobs/"+queued, "tok-alice", nil, 200)
	leader := jobID(do("POST", "/v1/run", "tok-bob", run(5, true), 202))
	do("POST", "/v1/run", "tok-alice", run(5, true), 202) // coalesces onto bob's queued leader
	do("POST", "/v1/run", "tok-alice", run(4, true), 202) // queued, revoked below
	do("POST", "/v1/run", "tok-alice", run(6, true), 429) // alice's sixth POST: burst of 5 spent

	if err := os.WriteFile(tokens, []byte("tok-bob bob\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := srv.ReloadTokens(); err != nil {
		t.Fatal(err)
	}
	close(release)
	lj, ok := srv.sched.get(leader)
	if !ok {
		t.Fatal("coalesced leader job vanished")
	}
	lj.wait()
	waitSchedulerIdle(t, srv.sched)

	// Every job so far finished at t0; past the TTL they all expire on
	// the next scheduler call, which this async memory hit makes.
	clockMu.Lock()
	now = now.Add(2 * time.Minute)
	clockMu.Unlock()
	do("POST", "/v1/run", "tok-bob", run(1, true), 202)

	_, body := get(t, ts.URL+"/metrics")
	got := regexp.MustCompile(`(?m)^(htdp_request_latency_seconds_sum\{.*\}) \S+$`).
		ReplaceAllString(string(body), "$1 <masked>")
	golden := filepath.Join("testdata", "metrics_golden.txt")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("/metrics differs from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}

// scrape returns what one /metrics render sees: the owners' gauges
// merged with every counter of the registry.
func scrape(m *metrics, owners ...interface{ gauges(map[series]int64) }) map[series]int64 {
	g := make(map[series]int64)
	for _, o := range owners {
		o.gauges(g)
	}
	m.write(io.Discard, g)
	return g
}

// waitSchedulerIdle blocks until no job is queued or running: a worker
// releases its tenant's running slot just after the job's waiters
// unblock, so a gauge read right after wait() could still see it.
func waitSchedulerIdle(t *testing.T, s *scheduler) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		busy := s.queuedTotal
		for _, n := range s.runningN {
			busy += n
		}
		s.mu.Unlock()
		if busy == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("scheduler never went idle")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestObserveAllocs: recording one request into the registry — its
// route/code count, latency and tenant — allocates nothing once the
// series exist; the status code stays an int until render.
func TestObserveAllocs(t *testing.T) {
	m := newMetrics()
	record := func() { m.observe("POST /v1/run", 200, time.Millisecond, "alice") }
	record()
	if n := testing.AllocsPerRun(1000, record); n != 0 {
		t.Fatalf("recording one request allocates %v times, want 0", n)
	}
}
