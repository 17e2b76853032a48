package traceio

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
)

// Robustness: the atlas snapshot reader opens files from disk that may
// be corrupt, truncated, or hostile. Errors are fine; panics and
// unbounded allocations are not (mirrors internal/packet/fuzz_test.go).
// Every check runs the production read path over the bytes: open, every
// ReadShard, ReadDiamonds.

// readNeverPanics writes data to path and reads it back in full. It
// returns what the reader accepted, or nil.
func readNeverPanics(t *testing.T, path string, data []byte) *atlasFile {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("reader panicked on %q: %v", data, r)
		}
	}()
	f, err := readAtlas(path)
	if err != nil {
		return nil
	}
	return f
}

func TestAtlasDecodeNeverPanicsOnGarbage(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "garbage.atlas")
	check := func(data []byte) bool {
		readNeverPanics(t, path, data)
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Every prefix of a valid snapshot must error cleanly, never panic: a
// crash during a non-atomic copy produces exactly this shape.
func TestAtlasDecodeNeverPanicsOnTruncation(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "truncated.atlas")
	raw := sampleAtlas().bytes(t)
	for n := 0; n < len(raw); n++ {
		readNeverPanics(t, path, raw[:n])
	}
}

// Flipping any byte of a valid snapshot must not panic; flips inside
// string values and offsets may legitimately survive or fail.
func TestAtlasDecodeNeverPanicsOnBitFlips(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "flipped.atlas")
	raw := wideAtlas(3).bytes(t)
	mut := make([]byte, len(raw))
	for i := 0; i < len(raw); i++ {
		for _, b := range []byte{0x00, 0xff, raw[i] ^ 0x80, '-', '9'} {
			copy(mut, raw)
			mut[i] = b
			readNeverPanics(t, path, mut)
		}
	}
}

// FuzzDecodeAtlas is the native-fuzzing form of the hostile-input tests
// above, run over the production reader and seeded with a valid
// snapshot, its truncation and hostile headers so the mutator starts
// near the format's structure. CI's fuzz-smoke job runs it for a short
// budget; locally:
//
//	go test -run='^$' -fuzz=FuzzDecodeAtlas -fuzztime=30s ./internal/traceio
func FuzzDecodeAtlas(f *testing.F) {
	raw := wideAtlas(2).bytes(f)
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	header, body, _ := strings.Cut(string(raw), "\n")
	f.Add([]byte(strings.Replace(header, `"nodes":9`, `"nodes":123456789012`, 1) + "\n" + body))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		got := readNeverPanics(t, filepath.Join(t.TempDir(), "fuzz.atlas"), data)
		if got == nil {
			return
		}
		// Whatever the reader accepts must re-encode: accepted hostile
		// inputs may not produce blocks the encoder (and so Compact)
		// chokes on.
		if err := got.encode(io.Discard); err != nil {
			t.Fatalf("accepted snapshot failed to re-encode: %v", err)
		}
	})
}

// Hostile section counts must not translate into allocations before the
// lines backing them exist, and a header total the index does not back
// fails at open.
func TestAtlasDecodeHostileHeaderCounts(t *testing.T) {
	t.Parallel()
	header, body, _ := strings.Cut(string(sampleAtlas().bytes(t)), "\n")
	for _, c := range [][2]string{
		{`"nodes":9`, `"nodes":123456789012`},
		{`"routers":2`, `"routers":2147483647`},
		{`"pairs":2`, `"pairs":999999999`},
		{`"diamonds":1`, `"diamonds":999999999`},
	} {
		h := strings.Replace(header, c[0], c[1], 1)
		if h == header {
			t.Fatalf("%s: mutation did not change the header", c[1])
		}
		for _, in := range []string{h + "\n", h + "\n" + body} {
			if _, err := readAtlas(writeBytes(t, []byte(in))); err == nil {
				t.Errorf("header %s: reader accepted a file that does not back it", h)
			}
		}
	}
}
