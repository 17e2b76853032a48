package survey

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"mmlpt/internal/atlas"
	"mmlpt/internal/mda"
)

// Determinism guard: a survey's streamed JSONL record log AND its atlas
// snapshot must be byte-identical across worker counts and atlas shard
// counts. This is the regression net for future map-iteration leaks of
// the AdoptStarFlows kind (PR 2): any nondeterminism in discovery
// order, record encoding, or the sharded atlas merge shows up here as a
// byte diff.
func TestSurveyAndAtlasByteIdenticalAcrossWorkersAndShards(t *testing.T) {
	if testing.Short() {
		t.Skip("multilevel survey sweep is slow; skipped with -short")
	}
	t.Parallel()

	type variant struct {
		workers, shards int
	}
	variants := []variant{
		{workers: 1, shards: 1},
		{workers: 8, shards: 1},
		{workers: 8, shards: 13},
		{workers: 3, shards: 64},
	}
	var refJSONL, refSnapshot []byte
	for _, v := range variants {
		u := Generate(GenConfig{Seed: 7, Pairs: 30})
		path := filepath.Join(t.TempDir(), "records.jsonl")
		jsonl := NewJSONLSink(path)
		as := NewAtlasSink(atlas.Options{Shards: v.shards})
		cfg := RunConfig{
			Algo: AlgoMultilevel, OnlyLB: true, Retries: 1,
			Rounds: 2, ProbesPerRound: 10,
			Trace:   mda.Config{Seed: 7},
			Workers: v.workers,
			Sinks:   []Sink{jsonl, as},
		}
		if _, err := Run(u, cfg); err != nil {
			t.Fatalf("workers=%d shards=%d: %v", v.workers, v.shards, err)
		}
		if err := jsonl.Close(); err != nil {
			t.Fatal(err)
		}
		gotJSONL, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var snap bytes.Buffer
		if _, err := as.Atlas.WriteTo(&snap); err != nil {
			t.Fatal(err)
		}
		if refJSONL == nil {
			refJSONL, refSnapshot = gotJSONL, snap.Bytes()
			if len(refJSONL) == 0 || as.Atlas.NumPairs() == 0 {
				t.Fatal("reference run produced no records; the guard would be vacuous")
			}
			continue
		}
		if !bytes.Equal(gotJSONL, refJSONL) {
			t.Errorf("workers=%d shards=%d: JSONL differs from workers=1 reference", v.workers, v.shards)
		}
		if !bytes.Equal(snap.Bytes(), refSnapshot) {
			t.Errorf("workers=%d shards=%d: atlas snapshot differs from workers=1 reference", v.workers, v.shards)
		}
	}

	// And the snapshot is a fixed point of the merge on disk: compacting
	// it alone rewrites it byte for byte.
	dir := t.TempDir()
	in, out := filepath.Join(dir, "ref.atlas"), filepath.Join(dir, "compacted.atlas")
	if err := os.WriteFile(in, refSnapshot, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := atlas.Compact(out, in, nil, atlas.Options{}); err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, refSnapshot) {
		t.Error("compacting the snapshot alone changed its bytes")
	}
}
