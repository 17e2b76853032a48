package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mmlpt/internal/atlas"
	"mmlpt/internal/atlas/serve"
	"mmlpt/internal/experiments"
	"mmlpt/internal/survey"
	"mmlpt/internal/traceio"
)

// testService serves the atlas of one traced pair: a width-2 diamond
// 10.0.0.1 → {10.0.0.2, 10.0.0.3} → 10.0.0.4 whose middle hop aliased.
func testService(t *testing.T) *serve.Service {
	t.Helper()
	a := atlas.New(atlas.Options{})
	err := a.AddRecord(&traceio.SurveyRecord{
		Trace: traceio.JSONTrace{
			Src: "192.0.2.1", Dst: "203.0.113.1",
			Vertices: []traceio.JSONVertex{
				{Addr: "10.0.0.1", Hop: 1}, {Addr: "10.0.0.2", Hop: 2},
				{Addr: "10.0.0.3", Hop: 2}, {Addr: "10.0.0.4", Hop: 3},
			},
			Edges:   []traceio.JSONEdge{{From: 0, To: 1}, {From: 0, To: 2}, {From: 1, To: 3}, {From: 2, To: 3}},
			Routers: []traceio.JSONRouter{{Addrs: []string{"10.0.0.2", "10.0.0.3"}}},
		},
		Diamonds: []traceio.SurveyDiamond{{Div: "10.0.0.1", Conv: "10.0.0.4", MaxWidth: 2, MaxLength: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.atlas")
	if err := a.Save(path); err != nil {
		t.Fatal(err)
	}
	svc, err := serve.Open(path, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc
}

func get(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("GET %s: Content-Type = %q", path, ct)
	}
	return rec.Code, rec.Body.String()
}

func TestHandlerRoutes(t *testing.T) {
	t.Parallel()
	h := newMux(testService(t))

	code, body := get(t, h, "/healthz")
	if code != http.StatusOK || body != `{"ok":true}`+"\n" {
		t.Fatalf("/healthz: %d %q", code, body)
	}

	code, body = get(t, h, "/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("/v1/stats: %d %q", code, body)
	}
	var st statsResponse
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st != (statsResponse{Pairs: 1, Nodes: 4, Edges: 4, Routers: 1, Diamonds: 1}) {
		t.Fatalf("/v1/stats: %+v", st)
	}

	code, body = get(t, h, "/v1/census")
	if code != http.StatusOK {
		t.Fatalf("/v1/census: %d %q", code, body)
	}
	var cs censusResponse
	if err := json.Unmarshal([]byte(body), &cs); err != nil {
		t.Fatal(err)
	}
	want := censusEntry{Div: "10.0.0.1", Conv: "10.0.0.4", Count: 1, Pairs: 1, MaxWidth: 2, MaxLength: 2}
	if len(cs.Diamonds) != 1 || cs.Diamonds[0] != want {
		t.Fatalf("/v1/census: %+v", cs)
	}

	// Router by member, by representative, and the unaliased singleton.
	for _, q := range []string{"10.0.0.2", "10.0.0.3"} {
		code, body = get(t, h, "/v1/router/"+q)
		if code != http.StatusOK {
			t.Fatalf("/v1/router/%s: %d %q", q, code, body)
		}
		var rr routerResponse
		if err := json.Unmarshal([]byte(body), &rr); err != nil {
			t.Fatal(err)
		}
		if rr.Addr != q || len(rr.Router) != 2 || rr.Router[0] != "10.0.0.2" || rr.Router[1] != "10.0.0.3" {
			t.Fatalf("/v1/router/%s: %+v", q, rr)
		}
	}
	code, body = get(t, h, "/v1/router/10.0.0.1")
	if code != http.StatusOK || !strings.Contains(body, `"router":["10.0.0.1"]`) {
		t.Fatalf("singleton router: %d %q", code, body)
	}

	code, body = get(t, h, "/v1/addr/10.0.0.2")
	if code != http.StatusOK {
		t.Fatalf("/v1/addr: %d %q", code, body)
	}
	var ar addrResponse
	if err := json.Unmarshal([]byte(body), &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Addr != "10.0.0.2" || len(ar.Seen) != 1 || ar.Seen[0] != (obsResponse{Pair: 0, Hop: 2}) {
		t.Fatalf("/v1/addr: %+v", ar)
	}
}

func TestHandlerErrorPaths(t *testing.T) {
	t.Parallel()
	h := newMux(testService(t))

	// 404: well-formed but absent addresses, and unknown routes.
	for _, path := range []string{
		"/v1/router/10.9.9.9", "/v1/addr/10.9.9.9",
		"/v1/nope", "/", "/v1/stats/extra",
	} {
		code, body := get(t, h, path)
		if code != http.StatusNotFound {
			t.Errorf("GET %s: %d %q, want 404", path, code, body)
		}
		var e errorResponse
		if err := json.Unmarshal([]byte(body), &e); err != nil || e.Error == "" {
			t.Errorf("GET %s: non-JSON error body %q", path, body)
		}
	}

	// 400: malformed addresses.
	for _, path := range []string{
		"/v1/router/bogus", "/v1/addr/bogus", "/v1/router/", "/v1/addr/",
		"/v1/addr/10.0.0.2/extra",
	} {
		code, body := get(t, h, path)
		if code != http.StatusBadRequest {
			t.Errorf("GET %s: %d %q, want 400", path, code, body)
		}
	}

	// 405: non-GET on every route.
	for _, path := range []string{"/healthz", "/v1/stats", "/v1/census", "/v1/router/10.0.0.2", "/v1/addr/10.0.0.2"} {
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader("{}"))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("POST %s: %d, want 405", path, rec.Code)
		}
	}
}

// The service keeps answering after a mid-flight generation swap.
func TestHandlerAfterSwap(t *testing.T) {
	t.Parallel()
	svc := testService(t)
	h := newMux(svc)
	path, err := svc.Path()
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Swap(path); err != nil {
		t.Fatal(err)
	}
	code, body := get(t, h, "/v1/stats")
	if code != http.StatusOK || !strings.Contains(body, `"nodes":4`) {
		t.Fatalf("post-swap /v1/stats: %d %q", code, body)
	}
}

// The serve goldens in-process: build the serve-smoke atlas (router
// level, 40 pairs, seed 7 — what `survey -level router -pairs 40 -seed 7
// -atlas smoke.atlas` writes), serve it through the real handler over
// HTTP, and byte-compare every response with testdata/serve_golden/.
// The CI serve-smoke job runs the same queries against the real
// binaries.
func TestServeGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("the 40-pair router-level survey takes seconds; skipped with -short")
	}
	t.Parallel()
	sink := survey.NewAtlasSink(atlas.Options{})
	cfg := experiments.SurveyConfig{
		Pairs: 40, Seed: 7, Phi: 2, Rounds: 10,
		CheckpointEvery: survey.DefaultCheckpointEvery,
		Sinks:           []survey.Sink{sink},
	}
	if _, _, err := experiments.RouterSurvey(cfg); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "smoke.atlas")
	if err := sink.Atlas.Save(path); err != nil {
		t.Fatal(err)
	}
	svc, err := serve.Open(path, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := httptest.NewServer(newMux(svc))
	defer srv.Close()

	for _, q := range []struct {
		golden, path string
		status       int
	}{
		{"healthz", "/healthz", http.StatusOK},
		{"stats", "/v1/stats", http.StatusOK},
		{"census", "/v1/census", http.StatusOK},
		{"router", "/v1/router/10.0.0.58", http.StatusOK},
		{"addr", "/v1/addr/10.0.0.58", http.StatusOK},
		{"notfound", "/v1/router/10.255.255.254", http.StatusNotFound},
		{"badaddr", "/v1/addr/bogus", http.StatusBadRequest},
	} {
		resp, err := http.Get(srv.URL + q.path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != q.status {
			t.Errorf("GET %s: status %d, want %d", q.path, resp.StatusCode, q.status)
		}
		want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "serve_golden", q.golden+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("GET %s differs from serve_golden/%s.json:\n got %s\nwant %s", q.path, q.golden, got, want)
		}
	}
}
