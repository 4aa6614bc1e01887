package orchestrator

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCheckpointRoundtrip(t *testing.T) {
	for _, payload := range [][]byte{
		[]byte{},
		[]byte("x"),
		[]byte("a gob-encoded model would go here"),
		bytes.Repeat([]byte{0xff, 0x00}, 1<<10),
	} {
		enc := EncodeCheckpoint(payload)
		got, err := DecodeCheckpoint(enc)
		if err != nil {
			t.Fatalf("roundtrip(%d bytes): %v", len(payload), err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("roundtrip(%d bytes): payload mismatch", len(payload))
		}
	}
}

func TestCheckpointDetectsCorruption(t *testing.T) {
	enc := EncodeCheckpoint([]byte("the quick brown fox jumps over the lazy dog"))
	// Every single-bit flip anywhere in the frame must be detected: in the
	// magic, the length, the CRC, or the payload itself.
	for i := 0; i < len(enc); i++ {
		for bit := 0; bit < 8; bit++ {
			bad := append([]byte(nil), enc...)
			bad[i] ^= 1 << bit
			if _, err := DecodeCheckpoint(bad); err == nil {
				t.Fatalf("bit flip at byte %d bit %d went undetected", i, bit)
			}
		}
	}
}

func TestCheckpointDetectsTruncation(t *testing.T) {
	enc := EncodeCheckpoint([]byte("payload payload payload"))
	for n := 0; n < len(enc); n++ {
		if _, err := DecodeCheckpoint(enc[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes went undetected", n, len(enc))
		}
	}
	// Trailing garbage must be rejected too, not silently ignored.
	if _, err := DecodeCheckpoint(append(append([]byte(nil), enc...), 0x00)); err == nil {
		t.Fatal("trailing byte went undetected")
	}
}

func TestAtomicWriteLeavesNoFinalFileOnFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "chunk-0000.ckpt")
	fs := &faultFS{FS: OSFS{}, failSubstr: "chunk-0000.ckpt"}
	if err := atomicWrite(fs, path, []byte("doomed")); err == nil {
		t.Fatal("want injected write failure")
	}
	if _, err := os.Stat(path); err == nil {
		t.Fatal("final file must not exist after a torn write")
	}
}

func TestAtomicWriteReplacesExisting(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.ckpt")
	if err := atomicWrite(OSFS{}, path, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := atomicWrite(OSFS{}, path, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got := string(readFile(t, path)); got != "v2" {
		t.Fatalf("content = %q, want v2", got)
	}
	if _, err := os.Stat(path + ".tmp"); err == nil {
		t.Fatal("temp file must not linger after a successful write")
	}
}

// mustEncode serializes a manifest that is known-good by construction.
func mustEncode(m *Manifest) []byte {
	b, err := m.encode()
	if err != nil {
		panic(err)
	}
	return b
}

func validManifest() *Manifest {
	return &Manifest{
		Version:    ManifestVersion,
		ConfigHash: 42,
		BaseSeed:   7,
		Chunks: []ChunkManifest{
			{Status: ChunkDone, Attempts: 1, Stream: 123, File: "chunk-0000.ckpt", Checksum: 9},
			{Status: ChunkPending, Stream: 456},
			{Status: ChunkDegraded, Attempts: 3, Stream: 789, File: "chunk-0002.ckpt"},
		},
	}
}

func TestManifestRoundtrip(t *testing.T) {
	m := validManifest()
	got, err := ParseManifest(mustEncode(m))
	if err != nil {
		t.Fatal(err)
	}
	if got.ConfigHash != m.ConfigHash || got.BaseSeed != m.BaseSeed || len(got.Chunks) != len(m.Chunks) {
		t.Fatalf("roundtrip mismatch: %+v", got)
	}
	for i := range m.Chunks {
		if got.Chunks[i] != m.Chunks[i] {
			t.Fatalf("chunk %d mismatch: %+v != %+v", i, got.Chunks[i], m.Chunks[i])
		}
	}
}

func TestParseManifestRejections(t *testing.T) {
	cases := map[string]func(*Manifest){
		"wrong-version":    func(m *Manifest) { m.Version = ManifestVersion + 1 },
		"no-chunks":        func(m *Manifest) { m.Chunks = nil },
		"bad-status":       func(m *Manifest) { m.Chunks[0].Status = "meh" },
		"negative-attempt": func(m *Manifest) { m.Chunks[1].Attempts = -1 },
		"path-escape":      func(m *Manifest) { m.Chunks[0].File = "../../etc/passwd" },
	}
	for name, mutate := range cases {
		m := validManifest()
		mutate(m)
		if _, err := ParseManifest(mustEncode(m)); err == nil {
			t.Errorf("%s: want rejection", name)
		}
	}
	if _, err := ParseManifest([]byte("{not json")); err == nil {
		t.Error("malformed JSON must be rejected")
	}
	if _, err := ParseManifest(nil); err == nil {
		t.Error("empty input must be rejected")
	}
}

func TestParseManifestAllowsUnsetFiles(t *testing.T) {
	// Pending chunks carry an empty File; filepath.Base("") is "."
	// and must not trip the path-confinement check.
	m := validManifest()
	if _, err := ParseManifest(mustEncode(m)); err != nil {
		t.Fatalf("manifest with unset file fields rejected: %v", err)
	}
}

func TestChunkFileNames(t *testing.T) {
	if got := chunkFile(3); got != "chunk-0003.ckpt" {
		t.Fatalf("chunkFile(3) = %q", got)
	}
	// Names sort in chunk order and never collide across 4-digit indices.
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		name := chunkFile(i)
		if seen[name] {
			t.Fatalf("duplicate checkpoint name %q", name)
		}
		if strings.ContainsAny(name, "/\\") {
			t.Fatalf("checkpoint name %q escapes the directory", name)
		}
		seen[name] = true
	}
}

func TestEncodeCheckpointHeaderLayout(t *testing.T) {
	payload := []byte("abc")
	enc := EncodeCheckpoint(payload)
	if len(enc) != ckptHeaderLen+len(payload) {
		t.Fatalf("frame length %d, want %d", len(enc), ckptHeaderLen+len(payload))
	}
	if !bytes.HasPrefix(enc, ckptMagic[:]) {
		t.Fatalf("frame %q missing magic", enc[:8])
	}
	if !bytes.HasSuffix(enc, payload) {
		t.Fatal("payload must trail the header")
	}
}

func TestManifestEncodeIsStable(t *testing.T) {
	// The manifest is rewritten after every chunk; byte-stable encoding
	// keeps checkpoint directories diffable across identical runs.
	a, b := mustEncode(validManifest()), mustEncode(validManifest())
	if !bytes.Equal(a, b) {
		t.Fatal("manifest encoding is not deterministic")
	}
}
