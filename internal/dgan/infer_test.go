package dgan

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/nn"
)

func inferTestModel(t testing.TB) *InferModel {
	t.Helper()
	return genTestModel(t, 1).Infer()
}

// TestInferParallelismInvariant: the fast path keeps the reference path's
// reproducibility structure — same seed, any worker count, same output —
// even though it does not share the float64 bitwise contract.
func TestInferParallelismInvariant(t *testing.T) {
	const n = 203 // not a multiple of DefaultInferLot: partial final lot
	ref := inferTestModel(t)
	ref.SetParallelism(1)
	ref.Reseed(99)
	want := ref.Generate(n)
	if len(want) != n {
		t.Fatalf("got %d samples, want %d", len(want), n)
	}
	for _, p := range []int{2, 4, 0} {
		im := inferTestModel(t)
		im.SetParallelism(p)
		im.Reseed(99)
		if got := im.Generate(n); !reflect.DeepEqual(want, got) {
			t.Fatalf("Parallelism=%d output diverges from serial", p)
		}
	}
}

// TestInferSampleShapes checks structural validity of fast-path samples:
// meta width, feature width (presence stripped), length bounds, one-hot
// categorical blocks, continuous values inside the sigmoid range.
func TestInferSampleShapes(t *testing.T) {
	im := inferTestModel(t)
	im.Reseed(5)
	samples := im.Generate(130)
	metaW := nn.Width(im.MetaSchema)
	featW := nn.Width(im.FeatureSchema)
	for i, s := range samples {
		if len(s.Meta) != metaW {
			t.Fatalf("sample %d meta width %d, want %d", i, len(s.Meta), metaW)
		}
		if len(s.Features) < 1 || len(s.Features) > im.MaxLen {
			t.Fatalf("sample %d has %d steps, want 1..%d", i, len(s.Features), im.MaxLen)
		}
		// m1 is a 4-way categorical occupying meta columns 2..6.
		var hot int
		for _, v := range s.Meta[2:6] {
			if v != 0 && v != 1 {
				t.Fatalf("sample %d categorical meta value %v", i, v)
			}
			if v == 1 {
				hot++
			}
		}
		if hot != 1 {
			t.Fatalf("sample %d meta one-hot count %d", i, hot)
		}
		for _, row := range s.Features {
			if len(row) != featW {
				t.Fatalf("sample %d feature width %d, want %d", i, len(row), featW)
			}
			if row[0] < 0 || row[0] > 1 {
				t.Fatalf("sample %d continuous feature %v outside [0,1]", i, row[0])
			}
		}
	}
}

// TestInferGenerateRepeatable: reseeding restores the exact stream.
func TestInferGenerateRepeatable(t *testing.T) {
	im := inferTestModel(t)
	im.Reseed(42)
	a := im.Generate(77)
	im.Reseed(42)
	b := im.Generate(77)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("reseeded fast-path generation must repeat exactly")
	}
}

// TestInferWireRoundTrip: encode → decode preserves schemas, dimensions,
// and — after an identical reseed — the exact generation stream.
func TestInferWireRoundTrip(t *testing.T) {
	im := inferTestModel(t)
	blob := im.EncodeInfer()
	got, err := DecodeInferWeights(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.MetaSchema, im.MetaSchema) ||
		!reflect.DeepEqual(got.FeatureSchema, im.FeatureSchema) {
		t.Fatal("schemas must round-trip")
	}
	if got.MaxLen != im.MaxLen || got.NoiseDim != im.NoiseDim ||
		got.Hidden != im.Hidden || got.Lot != im.Lot {
		t.Fatal("dimensions must round-trip")
	}
	im.Reseed(123)
	got.Reseed(123)
	if !reflect.DeepEqual(im.Generate(150), got.Generate(150)) {
		t.Fatal("decoded snapshot must generate the identical stream")
	}
	if !reflect.DeepEqual(blob, got.EncodeInfer()) {
		t.Fatal("re-encoding must be byte-identical")
	}
}

// TestDecodeInferWeightsErrors: every malformed input maps to a typed
// error, never a panic.
func TestDecodeInferWeightsErrors(t *testing.T) {
	valid := inferTestModel(t).EncodeInfer()

	// Any strict prefix is truncated (or, at a field boundary, invalid —
	// e.g. a cut that removes only trailing tensor content).
	for _, cut := range []int{0, 1, 2, 7, 11, len(valid) / 2, len(valid) - 1} {
		_, err := DecodeInferWeights(valid[:cut])
		if err == nil {
			t.Fatalf("prefix of %d bytes must fail", cut)
		}
		if !errors.Is(err, ErrInferTruncated) && !errors.Is(err, ErrInferInvalid) {
			t.Fatalf("prefix of %d bytes: untyped error %v", cut, err)
		}
	}

	bad := append([]byte(nil), valid...)
	bad[0] = 0xFF // version
	if _, err := DecodeInferWeights(bad); !errors.Is(err, ErrInferInvalid) {
		t.Fatalf("bad version: %v", err)
	}

	trailing := append(append([]byte(nil), valid...), 0)
	if _, err := DecodeInferWeights(trailing); !errors.Is(err, ErrInferInvalid) {
		t.Fatalf("trailing byte: %v", err)
	}

	zeroDim := append([]byte(nil), valid...)
	zeroDim[2], zeroDim[3] = 0, 0 // MaxLen = 0
	if _, err := DecodeInferWeights(zeroDim); !errors.Is(err, ErrInferInvalid) {
		t.Fatalf("zero dimension: %v", err)
	}
}

// FuzzDecodeInferWeights: decoding arbitrary bytes must either succeed or
// return one of the two typed errors; a success must re-encode cleanly.
func FuzzDecodeInferWeights(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0})
	valid := inferTestModel(f).EncodeInfer()
	f.Add(valid)
	f.Add(valid[:len(valid)/3])
	mut := append([]byte(nil), valid...)
	mut[8] ^= 0x40
	f.Add(mut)
	f.Fuzz(func(t *testing.T, data []byte) {
		im, err := DecodeInferWeights(data)
		if err != nil {
			if !errors.Is(err, ErrInferTruncated) && !errors.Is(err, ErrInferInvalid) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if im == nil {
			t.Fatal("nil model with nil error")
		}
		if got := im.EncodeInfer(); !reflect.DeepEqual(got, data) {
			t.Fatal("accepted input must re-encode byte-identically")
		}
	})
}

// TestInferGenerateEachMatchesGenerate: the float32 streamed path keeps
// Model.GenerateEach's contract — the samples Generate returns, in order,
// over several windows, one base draw from the snapshot's RNG for a nil
// stream, and none for an explicit one.
func TestInferGenerateEachMatchesGenerate(t *testing.T) {
	const n = 2100 // several windows at either worker count; not a lot multiple
	for _, p := range []int{1, 2} {
		im := inferTestModel(t)
		im.SetParallelism(p)
		im.Reseed(99)
		want := im.Generate(n)
		wantNext := im.Generate(5)

		each := func(r *rand.Rand) (got []Sample, calls int) {
			if err := im.GenerateEach(r, n, -1, func(batch []Sample) bool {
				calls++
				for _, s := range batch {
					got = append(got, cloneSample(s))
				}
				return true
			}); err != nil {
				t.Fatal(err)
			}
			return got, calls
		}
		im.Reseed(99)
		got, calls := each(nil)
		if calls < 2 {
			t.Fatalf("parallelism %d: %d consumer calls, want several windows", p, calls)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("parallelism %d: GenerateEach samples differ from Generate", p)
		}
		if !reflect.DeepEqual(wantNext, im.Generate(5)) {
			t.Fatalf("parallelism %d: GenerateEach advanced the RNG differently from Generate", p)
		}

		im.Reseed(99)
		if got, _ := each(rand.New(rand.NewSource(99))); !reflect.DeepEqual(want, got) {
			t.Fatalf("parallelism %d: an explicit stream must draw what the snapshot's RNG would", p)
		}
		if !reflect.DeepEqual(want, im.Generate(n)) {
			t.Fatalf("parallelism %d: an explicit stream must leave the snapshot's RNG alone", p)
		}
	}
}
