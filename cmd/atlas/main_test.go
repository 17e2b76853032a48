package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mmlpt/internal/atlas"
	"mmlpt/internal/atlas/serve"
	"mmlpt/internal/traceio"
)

// testSnapshot saves the atlas of one traced pair: a width-2 diamond
// 10.0.0.1 → {10.0.0.2, 10.0.0.3} → 10.0.0.4 whose middle hop aliased.
func testSnapshot(t *testing.T) string {
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
	return path
}

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestSubcommands(t *testing.T) {
	t.Parallel()
	path := testSnapshot(t)

	code, out, _ := runCLI(t, "stats", path)
	if code != 0 || !strings.Contains(out, "4 addresses") || !strings.Contains(out, "1 routers") {
		t.Fatalf("stats: code=%d out=%q", code, out)
	}

	code, out, _ = runCLI(t, "routers", path)
	if code != 0 || out != "router[2] 10.0.0.2 10.0.0.3\n" {
		t.Fatalf("routers: code=%d out=%q", code, out)
	}

	// By member and by representative; singleton for unaliased.
	for _, a := range []string{"10.0.0.2", "10.0.0.3"} {
		code, out, _ = runCLI(t, "router", a, path)
		if code != 0 || out != "router[2] 10.0.0.2 10.0.0.3\n" {
			t.Fatalf("router %s: code=%d out=%q", a, code, out)
		}
	}
	code, out, _ = runCLI(t, "router", "10.0.0.1", path)
	if code != 0 || out != "router[1] 10.0.0.1\n" {
		t.Fatalf("router singleton: code=%d out=%q", code, out)
	}

	code, out, _ = runCLI(t, "census", path)
	if code != 0 || !strings.Contains(out, "10.0.0.1 10.0.0.4 1 1 2 2") {
		t.Fatalf("census: code=%d out=%q", code, out)
	}

	code, out, _ = runCLI(t, "addr", "10.0.0.2", path)
	if code != 0 || out != "10.0.0.2 pair 0 hop 2\n" {
		t.Fatalf("addr: code=%d out=%q", code, out)
	}
}

// Querying an absent address exits non-zero with a clear error.
func TestAbsentAddressErrors(t *testing.T) {
	t.Parallel()
	path := testSnapshot(t)
	for _, args := range [][]string{
		{"addr", "10.9.9.9", path},
		{"router", "10.9.9.9", path},
	} {
		code, out, errOut := runCLI(t, args...)
		if code != 1 {
			t.Fatalf("%v: code = %d, want 1", args, code)
		}
		if out != "" {
			t.Fatalf("%v: stdout = %q, want empty", args, out)
		}
		if !strings.Contains(errOut, "not in atlas") {
			t.Fatalf("%v: stderr = %q", args, errOut)
		}
	}
	// Malformed address: usage error, not a query miss.
	if code, _, _ := runCLI(t, "addr", "bogus", path); code != 2 {
		t.Fatalf("malformed addr code = %d, want 2", code)
	}
}

func TestCompactSubcommand(t *testing.T) {
	t.Parallel()
	base := testSnapshot(t)
	out := filepath.Join(t.TempDir(), "out.atlas")
	code, stdout, errOut := runCLI(t, "compact", "-o", out, base, base)
	if code != 0 {
		t.Fatalf("compact: code=%d stderr=%q", code, errOut)
	}
	if !strings.Contains(stdout, "compacted 2 snapshots") {
		t.Fatalf("compact stdout = %q", stdout)
	}
	// Merging a snapshot with itself is idempotent for topology; only
	// census encounter counts sum.
	if !strings.Contains(stdout, "4 addresses, 4 links, 1 routers") {
		t.Fatalf("compact stdout = %q", stdout)
	}
	code, census, _ := runCLI(t, "census", out)
	if code != 0 || !strings.Contains(census, "10.0.0.1 10.0.0.4 2 1 2 2") {
		t.Fatalf("compacted census: code=%d out=%q", code, census)
	}
	if code, _, _ := runCLI(t, "compact", "-o", "", base); code != 2 {
		t.Fatal("compact without -o must be a usage error")
	}
	if code, _, _ := runCLI(t, "compact", "-shards", "3", "-o", out, base); code != 2 {
		t.Fatal("the removed -shards flag must be a usage error")
	}
}

// A v1 snapshot is refused by every entry point — the serve layer,
// compaction and the CLI — with the command that converts it.
func TestV1SnapshotNeedsConversion(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	v1 := filepath.Join(dir, "v1.atlas")
	body := `{"version":1,"kind":"atlas","pairs":0,"nodes":1,"edges":0,"routers":0,"diamonds":0}` + "\n" +
		`{"addr":"10.0.0.1","seen":[[0,1]]}` + "\n"
	if err := os.WriteFile(v1, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	const convert = "atlas compact -o new.atlas old.atlas"
	if _, err := serve.Open(v1, serve.Options{}); err == nil || !strings.Contains(err.Error(), convert) {
		t.Errorf("serve.Open: err = %v", err)
	}
	if err := atlas.Compact(filepath.Join(dir, "out.atlas"), v1, nil, atlas.Options{}); err == nil || !strings.Contains(err.Error(), convert) {
		t.Errorf("atlas.Compact: err = %v", err)
	}
	for _, args := range [][]string{
		{"stats", v1},
		{"compact", "-o", filepath.Join(dir, "out.atlas"), v1},
	} {
		code, _, errOut := runCLI(t, args...)
		if code != 1 || !strings.Contains(errOut, convert) {
			t.Errorf("atlas %v: code=%d stderr=%q", args, code, errOut)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	t.Parallel()
	if code, _, _ := runCLI(t); code != 2 {
		t.Fatal("no args must be a usage error")
	}
	if code, _, _ := runCLI(t, "stats"); code != 2 {
		t.Fatal("stats without snapshot must be a usage error")
	}
	code, out, _ := runCLI(t, "help")
	if code != 0 || !strings.Contains(out, "usage:") {
		t.Fatalf("help: code=%d out=%q", code, out)
	}
	// Unknown subcommands, the removed flag style included, print the
	// usage and exit 2.
	for _, args := range [][]string{{"bogus"}, {"-stats", "x.atlas"}, {"x.atlas"}} {
		code, _, errOut := runCLI(t, args...)
		if code != 2 || !strings.Contains(errOut, "usage:") {
			t.Fatalf("%v: code=%d stderr=%q", args, code, errOut)
		}
	}
}
