package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"htdp/internal/data"
	"htdp/internal/randx"
	"htdp/internal/serve"
)

// Tenant tokens of the front door. Every request is authenticated;
// hot-mixed splits its traffic between the two tenants.
var tenantTokens = []string{"bench-token-a", "bench-token-b"}

// env is one running service under test: the rows of one synthetic
// heavy-tailed linear dataset registered three ways — in memory
// ("mem"), as a CSV file on disk ("csv") and as a row generator
// ("gen") — behind serve.New on a loopback listener, plus the client
// that drives it.
type env struct {
	dir    string
	pool   *data.SourcePool
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
}

// envConfig sizes one env.
type envConfig struct {
	n, d     int
	memCache int64 // memory tier of the result store, bytes
	conns    int   // client connections
}

// newEnv builds the dataset, writes and indexes its CSV, starts the
// service and checks that it answers. Everything lives under dir.
func newEnv(dir string, seed int64, cfg envConfig) (*env, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	e := &env{dir: dir}
	gen := data.LinearSource(seed, data.LinearOpt{
		N: cfg.n, D: cfg.d,
		Feature: randx.LogNormal{Mu: 0, Sigma: 0.8},
		Noise:   randx.Normal{Mu: 0, Sigma: 0.3},
	})
	rows := gen.Materialize()
	rows.WStar = nil // a CSV carries no planted parameter; neither does the in-memory copy
	csvPath := filepath.Join(dir, "rows.csv")
	if err := writeCSV(csvPath, rows); err != nil {
		return nil, err
	}
	e.pool = data.NewSourcePool()
	if _, err := e.pool.RegisterMem("mem", rows); err != nil {
		return nil, err
	}
	if _, err := e.pool.RegisterGen("gen", gen); err != nil {
		return nil, err
	}
	if _, err := e.pool.RegisterCSV("csv", csvPath, -1, false); err != nil {
		e.pool.Close()
		return nil, err
	}
	tokPath := filepath.Join(dir, "tokens")
	tok := fmt.Sprintf("%s tenant-a\n%s tenant-b\n", tenantTokens[0], tenantTokens[1])
	if err := os.WriteFile(tokPath, []byte(tok), 0o600); err != nil {
		e.pool.Close()
		return nil, err
	}
	srv, err := serve.New(e.pool, serve.Options{
		MemCacheBytes: cfg.memCache,
		CacheDir:      filepath.Join(dir, "cache"),
		TokensPath:    tokPath,
	})
	if err != nil {
		e.pool.Close()
		return nil, err
	}
	e.srv = srv
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		e.pool.Close()
		return nil, err
	}
	e.base = "http://" + ln.Addr().String()
	e.hs = &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second}
	e.served = make(chan error, 1)
	go func() { e.served <- e.hs.Serve(ln) }()
	e.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     cfg.conns,
		MaxIdleConnsPerHost: cfg.conns,
		DisableCompression:  true,
	}}
	if r := e.get("/healthz"); r.status != http.StatusOK {
		e.close()
		return nil, fmt.Errorf("healthz: status %d: %v", r.status, r.err)
	}
	return e, nil
}

func writeCSV(path string, ds *data.Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := data.WriteCSV(w, ds); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// close stops the listener, drains the service, closes the pool and
// removes the env's files.
func (e *env) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	e.hs.Shutdown(ctx)
	if err := <-e.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "htdpbench: serve:", err)
	}
	e.client.CloseIdleConnections()
	e.srv.Close()
	e.pool.Close()
	os.RemoveAll(e.dir)
}

// reply is one HTTP exchange as the client saw it.
type reply struct {
	status int
	tier   string // X-Htdp-Cache: hit, disk, miss or coalesced
	body   []byte
	err    error
}

func (e *env) post(path, token, reqID string, body []byte) reply {
	req, err := http.NewRequest(http.MethodPost, e.base+path, bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Authorization", "Bearer "+token)
	req.Header.Set("X-Request-Id", reqID)
	return e.do(req)
}

func (e *env) get(path string) reply {
	req, err := http.NewRequest(http.MethodGet, e.base+path, nil)
	if err != nil {
		return reply{err: err}
	}
	return e.do(req)
}

func (e *env) do(req *http.Request) reply {
	resp, err := e.client.Do(req)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return reply{status: resp.StatusCode, tier: resp.Header.Get("X-Htdp-Cache"), body: body, err: err}
}
