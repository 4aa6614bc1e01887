package orchestrator

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"repro/internal/container"
)

// On-disk layout of a checkpoint directory:
//
//	MANIFEST.json      run manifest: config hash, RNG streams, chunk status
//	chunk-0000.ckpt    framed model checkpoint for the seed chunk
//	chunk-0001.ckpt    ... one per fine-tuned chunk
//
// Every file is written atomically (temp file + rename), so a crash can
// leave stray *.tmp files but never a half-written checkpoint under its
// final name. Checkpoint payloads are additionally framed with a magic,
// length, and CRC-32 so torn or corrupted bytes are detected on load
// instead of being handed to the gob decoder.

// FS is the filesystem surface the orchestrator reads and writes
// checkpoints through. It exists so tests can inject torn or failing
// writes; OSFS is the production implementation.
type FS interface {
	ReadFile(name string) ([]byte, error)
	WriteFile(name string, data []byte) error
	Rename(oldpath, newpath string) error
	Remove(name string) error
	MkdirAll(dir string) error
}

// OSFS implements FS on the real filesystem. Writes and renames go
// through container.OSFS, which fsyncs files and parent directories so
// a crash right after a checkpoint cannot lose it.
type OSFS struct{ container.OSFS }

func (OSFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }
func (OSFS) MkdirAll(dir string) error            { return os.MkdirAll(dir, 0o755) }

// atomicWrite is the shared temp-file + rename discipline
// (container.AtomicWrite); the orchestrator FS is a structural superset
// of container.FS, so fault-injection filesystems pass straight through.
func atomicWrite(fs FS, path string, data []byte) error {
	return container.AtomicWrite(fs, path, data)
}

// ckptMagic identifies a framed checkpoint file (version 1).
var ckptMagic = [8]byte{'N', 'S', 'C', 'K', 'P', 'T', '1', '\n'}

const ckptHeaderLen = len(ckptMagic) + 8 // magic + uint32 length + uint32 crc

// EncodeCheckpoint frames a model payload for durable storage: magic,
// little-endian payload length, CRC-32 (IEEE) of the payload, payload.
func EncodeCheckpoint(payload []byte) []byte {
	out := make([]byte, ckptHeaderLen+len(payload))
	copy(out, ckptMagic[:])
	binary.LittleEndian.PutUint32(out[8:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[12:], crc32.ChecksumIEEE(payload))
	copy(out[ckptHeaderLen:], payload)
	return out
}

// DecodeCheckpoint validates a framed checkpoint and returns its payload.
// Truncated, oversized, or corrupted inputs return an error — never a
// panic and never silently truncated data.
func DecodeCheckpoint(data []byte) ([]byte, error) {
	if len(data) < ckptHeaderLen {
		return nil, fmt.Errorf("orchestrator: checkpoint truncated: %d bytes", len(data))
	}
	var magic [8]byte
	copy(magic[:], data)
	if magic != ckptMagic {
		return nil, fmt.Errorf("orchestrator: bad checkpoint magic %q", magic[:])
	}
	n := binary.LittleEndian.Uint32(data[8:])
	if int(n) != len(data)-ckptHeaderLen {
		return nil, fmt.Errorf("orchestrator: checkpoint length %d does not match %d payload bytes",
			n, len(data)-ckptHeaderLen)
	}
	payload := data[ckptHeaderLen:]
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(data[12:]); got != want {
		return nil, fmt.Errorf("orchestrator: checkpoint CRC mismatch: %08x != %08x", got, want)
	}
	return payload, nil
}

// ManifestVersion is the current manifest schema version.
const ManifestVersion = 1

// ManifestFile is the manifest's name inside a checkpoint directory.
const ManifestFile = "MANIFEST.json"

// ChunkStatus is a chunk's lifecycle state in the manifest.
type ChunkStatus string

// Chunk lifecycle states.
const (
	// ChunkPending marks a chunk not yet trained (or whose checkpoint was
	// found corrupt and must be retrained).
	ChunkPending ChunkStatus = "pending"
	// ChunkDone marks a fully trained, checkpointed chunk.
	ChunkDone ChunkStatus = "done"
	// ChunkDegraded marks a chunk that exhausted its retry budget and fell
	// back to the warm-started seed weights.
	ChunkDegraded ChunkStatus = "degraded"
)

// ChunkManifest records one chunk's durable state.
type ChunkManifest struct {
	Status   ChunkStatus `json:"status"`
	Attempts int         `json:"attempts"`
	// Stream is the chunk's derived RNG seed (rng.Derive(base, idx)); a
	// resumed run validates it so fresh and resumed chunks draw identical
	// noise.
	Stream int64 `json:"stream"`
	// File names the chunk's checkpoint inside the directory; Checksum is
	// the CRC-32 of its payload, cross-checked on load.
	File     string `json:"file,omitempty"`
	Checksum uint32 `json:"checksum,omitempty"`
}

// Manifest is the durable record of a checkpointed run.
type Manifest struct {
	Version int `json:"version"`
	// ConfigHash digests every training-relevant configuration field, so a
	// resumed run cannot silently mix incompatible configurations.
	ConfigHash uint64          `json:"configHash"`
	BaseSeed   int64           `json:"baseSeed"`
	Chunks     []ChunkManifest `json:"chunks"`
}

// ParseManifest decodes and validates manifest bytes. Corrupt or
// truncated input returns an error, never a panic.
func ParseManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("orchestrator: parse manifest: %w", err)
	}
	if m.Version != ManifestVersion {
		return nil, fmt.Errorf("orchestrator: manifest version %d, want %d", m.Version, ManifestVersion)
	}
	if len(m.Chunks) == 0 {
		return nil, fmt.Errorf("orchestrator: manifest has no chunks")
	}
	for i, c := range m.Chunks {
		switch c.Status {
		case ChunkPending, ChunkDone, ChunkDegraded:
		default:
			return nil, fmt.Errorf("orchestrator: chunk %d has invalid status %q", i, c.Status)
		}
		if c.Attempts < 0 {
			return nil, fmt.Errorf("orchestrator: chunk %d has a negative attempt count", i)
		}
		if c.File != "" && filepath.Base(c.File) != c.File {
			return nil, fmt.Errorf("orchestrator: chunk %d references a file outside the checkpoint directory", i)
		}
	}
	return &m, nil
}

// encode serializes the manifest for durable storage. Marshalling plain
// data fields should never fail, but a persistence layer must not be
// able to crash a training run, so the error propagates to the caller
// (surfaced as an EventCheckpointError) instead of panicking.
func (m *Manifest) encode() ([]byte, error) {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("orchestrator: encode manifest: %w", err)
	}
	return b, nil
}

func chunkFile(idx int) string { return fmt.Sprintf("chunk-%04d.ckpt", idx) }
