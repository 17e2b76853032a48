package traceio

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mmlpt/internal/packet"
)

// atlasFile is a snapshot as its producers hand it to the stream
// encoder: the pair table, the shard blocks in order, the census.
type atlasFile struct {
	Pairs    []AtlasPair
	Shards   []*AtlasShard
	Diamonds []AtlasDiamond
}

// encode streams f through the stream encoder, deriving the header
// totals from the blocks.
func (f *atlasFile) encode(w io.Writer) error {
	spec := AtlasStreamSpec{Pairs: f.Pairs, Shards: len(f.Shards), Diamonds: f.Diamonds}
	for _, sh := range f.Shards {
		spec.Nodes += len(sh.Nodes)
		spec.Routers += len(sh.Routers)
		for _, n := range sh.Nodes {
			spec.Edges += len(n.Succ)
		}
	}
	enc, err := NewAtlasStreamEncoder(w, spec)
	if err != nil {
		return err
	}
	for _, sh := range f.Shards {
		if err := enc.WriteBlock(sh); err != nil {
			return err
		}
	}
	return enc.Finish()
}

func (f *atlasFile) bytes(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := f.encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// writeBytes stores raw snapshot bytes in a fresh temp file.
func writeBytes(t testing.TB, raw []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "snap.atlas")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// readAtlas decodes every section of the snapshot at path through the
// reader, as a full consumer (Compact, a bulk listing) does: open, every
// shard, the census. It returns the first error.
func readAtlas(path string) (*atlasFile, error) {
	r, err := OpenAtlasFile(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	f := &atlasFile{Pairs: r.Pairs()}
	for i := 0; i < r.NumShards(); i++ {
		sh, err := r.ReadShard(i)
		if err != nil {
			return nil, err
		}
		f.Shards = append(f.Shards, sh)
	}
	if f.Diamonds, err = r.ReadDiamonds(); err != nil {
		return nil, err
	}
	return f, nil
}

// blocks slices canonical-order nodes into shard blocks of size nodes
// each, placing every router in the block owning its representative —
// the layout the atlas producers write at AtlasShardNodes.
func blocks(nodes []AtlasNodeV2, routers []AtlasRouter, size int) []*AtlasShard {
	var out []*AtlasShard
	var mins []packet.Addr
	for lo := 0; lo < len(nodes) || lo == 0; lo += size {
		hi := min(lo+size, len(nodes))
		sh := &AtlasShard{Header: AtlasShardHeader{Shard: len(out), Nodes: hi - lo}, Nodes: nodes[lo:hi]}
		var fence packet.Addr
		if hi > lo {
			sh.Header.Min, sh.Header.Max = nodes[lo].Addr, nodes[hi-1].Addr
			fence = packet.MustParseAddr(nodes[lo].Addr)
		}
		out = append(out, sh)
		mins = append(mins, fence)
	}
	for _, r := range routers {
		sh := out[AtlasShardForAddr(mins, packet.MustParseAddr(r.Addrs[0]))]
		sh.Routers = append(sh.Routers, r)
		sh.Header.Routers++
	}
	return out
}

// wideAtlas spans several shards at small block sizes: nine nodes, two
// multi-interface routers, cross-shard edges.
func wideAtlas(size int) *atlasFile {
	nodes := []AtlasNodeV2{
		{Addr: "10.0.0.1", Seen: [][2]int{{0, 1}}, Succ: []string{"10.0.0.2", "10.0.0.3"}},
		{Addr: "10.0.0.2", Seen: [][2]int{{0, 2}, {1, 3}}, Succ: []string{"10.0.0.4"}, Router: "10.0.0.2"},
		{Addr: "10.0.0.3", Seen: [][2]int{{0, 2}}, Succ: []string{"10.0.0.4"}, Router: "10.0.0.2"},
		{Addr: "10.0.0.4", Seen: [][2]int{{0, 3}}},
		{Addr: "10.0.0.5", Seen: [][2]int{{1, 1}}, Succ: []string{"10.0.0.6"}},
		{Addr: "10.0.0.6", Seen: [][2]int{{1, 2}}, Succ: []string{"10.0.0.2"}},
		{Addr: "10.0.0.7", Seen: [][2]int{{1, 4}}, Succ: []string{"10.0.0.8"}, Router: "10.0.0.7"},
		{Addr: "10.0.0.8", Seen: [][2]int{{1, 5}}, Succ: []string{"10.0.0.9"}},
		{Addr: "10.0.0.9", Seen: [][2]int{{1, 6}}, Router: "10.0.0.7"},
	}
	routers := []AtlasRouter{
		{Addrs: []string{"10.0.0.2", "10.0.0.3"}},
		{Addrs: []string{"10.0.0.7", "10.0.0.9"}},
	}
	return &atlasFile{
		Pairs: []AtlasPair{
			{Pair: 0, Src: "192.0.2.1", Dst: "203.0.113.1"},
			{Pair: 1, Src: "192.0.2.2", Dst: "203.0.113.2"},
		},
		Shards: blocks(nodes, routers, size),
		Diamonds: []AtlasDiamond{
			{Div: "10.0.0.1", Conv: "10.0.0.4", Count: 2, Pairs: []int{0}, MaxWidth: 2, MaxLength: 2},
		},
	}
}

// sampleAtlas is the default-layout snapshot the hostile-input tests
// mutate: one shard holding everything.
func sampleAtlas() *atlasFile { return wideAtlas(AtlasShardNodes) }

// The snapshot round-trips byte-stably: reading every section back
// yields the values written, and re-encoding them yields the identical
// bytes, so snapshot files can be compared with byte equality across
// runs.
func TestAtlasRoundTripByteStable(t *testing.T) {
	t.Parallel()
	want := sampleAtlas()
	first := want.bytes(t)
	got, err := readAtlas(writeBytes(t, first))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Pairs, want.Pairs) || !reflect.DeepEqual(got.Diamonds, want.Diamonds) {
		t.Fatalf("small sections differ:\n got %+v %+v\nwant %+v %+v", got.Pairs, got.Diamonds, want.Pairs, want.Diamonds)
	}
	if !reflect.DeepEqual(got.Shards[0].Nodes, want.Shards[0].Nodes) ||
		!reflect.DeepEqual(got.Shards[0].Routers, want.Shards[0].Routers) {
		t.Fatalf("shard differs:\n got %+v\nwant %+v", got.Shards[0], want.Shards[0])
	}
	if second := got.bytes(t); !bytes.Equal(first, second) {
		t.Fatalf("re-encoded snapshot differs:\n%q\nvs\n%q", first, second)
	}
}

func TestAtlasEmptyRoundTrip(t *testing.T) {
	t.Parallel()
	empty := &atlasFile{Shards: blocks(nil, nil, AtlasShardNodes)}
	got, err := readAtlas(writeBytes(t, empty.bytes(t)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Pairs)+len(got.Diamonds) != 0 || len(got.Shards) != 1 ||
		len(got.Shards[0].Nodes)+len(got.Shards[0].Routers) != 0 {
		t.Fatalf("empty snapshot read back non-empty: %+v", got)
	}
}

// Snapshots are saved through WriteFileAtomicStream: a save that fails
// mid-encode leaves the previous snapshot intact.
func TestAtlasFileAtomicWrite(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "a.atlas")
	want := sampleAtlas().bytes(t)
	if err := WriteFileAtomicStream(path, 0o644, sampleAtlas().encode); err != nil {
		t.Fatal(err)
	}
	broken := sampleAtlas()
	broken.Shards[0].Header.Nodes++ // the encoder rejects the block
	if err := WriteFileAtomicStream(path, 0o644, broken.encode); err == nil {
		t.Fatal("encoding a corrupt block succeeded")
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("failed save replaced the previous snapshot")
	}
	if _, err := readAtlas(path); err != nil {
		t.Fatal(err)
	}
}

// Corrupt files fail when the reader opens them or when it reads the
// section holding the corruption.
func TestAtlasDecodeRejections(t *testing.T) {
	t.Parallel()
	raw := string(sampleAtlas().bytes(t))
	header, body, _ := strings.Cut(raw, "\n")
	cases := map[string]string{
		"empty":                           "",
		"not json":                        "hop 0: 10.0.0.1\n",
		"wrong kind":                      strings.Replace(raw, `"kind":"atlas"`, `"kind":"xxxxx"`, 1),
		"wrong version":                   strings.Replace(header, `"version":2`, `"version":9`, 1) + "\n" + body,
		"negative count":                  strings.Replace(header, `"edges":8`, `"edges":-8`, 1) + "\n" + body,
		"missing nodes":                   strings.Replace(header, `"nodes":9`, `"nodes":7`, 1) + "\n" + body,
		"missing shard":                   strings.Replace(header, `"shards":1`, `"shards":2`, 1) + "\n" + body,
		"huge header":                     strings.Replace(header, `"nodes":9`, `"nodes":1000000000000`, 1) + "\n" + body,
		"singleton router":                strings.Replace(raw, `{"addrs":["10.0.0.2","10.0.0.3"]}`, padded(`{"addrs":["10.0.0.2"]}`, 33), 1),
		"trailing data":                   raw + `{"addr":"x"}` + "\n",
		"trailing data after blank lines": raw + "\n\n\n" + `{"addr":"x"}` + "\n",
		"missing diamond":                 strings.Replace(header, `"diamonds":1`, `"diamonds":2`, 1) + "\n" + body,
		"missing pair":                    strings.Replace(header, `"pairs":2`, `"pairs":3`, 1) + "\n" + body,
	}
	for name, in := range cases {
		if in == raw {
			t.Fatalf("%s: mutation did not change input", name)
		}
		if _, err := readAtlas(writeBytes(t, []byte(in))); err == nil {
			t.Errorf("%s: reader accepted invalid input", name)
		}
	}
}

// A v1 file fails at open with the command that converts it.
func TestAtlasReaderRejectsV1(t *testing.T) {
	t.Parallel()
	v1 := `{"version":1,"kind":"atlas","pairs":0,"nodes":1,"edges":0,"routers":0,"diamonds":0}` + "\n" +
		`{"addr":"10.0.0.1","seen":[[0,1]]}` + "\n"
	_, err := OpenAtlasFile(writeBytes(t, []byte(v1)))
	if err == nil || !strings.Contains(err.Error(), "atlas compact -o new.atlas old.atlas") {
		t.Fatalf("v1 open: err = %v, want the conversion command", err)
	}
}

// padded widens a one-line JSON object to n bytes with spaces before its
// closing brace, so an in-place mutation keeps every byte offset valid
// and only the check under test can fire.
func padded(obj string, n int) string {
	return obj[:len(obj)-1] + strings.Repeat(" ", n-len(obj)) + "}"
}
