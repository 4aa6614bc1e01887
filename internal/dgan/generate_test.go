package dgan

import (
	"reflect"
	"testing"

	"repro/internal/nn"
)

func genTestModel(t testing.TB, parallelism int) *Model {
	t.Helper()
	cfg := DefaultConfig()
	cfg.MetaSchema = []nn.FieldSpec{
		{Name: "m0", Kind: nn.FieldContinuous, Size: 2},
		{Name: "m1", Kind: nn.FieldCategorical, Size: 4},
	}
	cfg.FeatureSchema = []nn.FieldSpec{
		{Name: "f0", Kind: nn.FieldContinuous, Size: 1},
		{Name: "f1", Kind: nn.FieldCategorical, Size: 3},
	}
	cfg.MaxLen = 6
	cfg.Batch = 8
	cfg.Parallelism = parallelism
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestGenerateParallelismInvariant is the package-level golden check: the
// same weights and generation seed must emit bitwise-identical samples at
// every worker count, including n not a multiple of the lot size.
func TestGenerateParallelismInvariant(t *testing.T) {
	const n = 45 // not a multiple of Batch: exercises the partial final lot
	want := genTestModel(t, 1)
	want.Reseed(99)
	ref := want.Generate(n)
	if len(ref) != n {
		t.Fatalf("got %d samples, want %d", len(ref), n)
	}
	for _, p := range []int{2, 4, 0} {
		m := genTestModel(t, p)
		m.Reseed(99)
		got := m.Generate(n)
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("Parallelism=%d output diverges from serial", p)
		}
	}
}

// TestGenerateRNGAdvanceIsCallInvariant: Generate must advance the model's
// canonical RNG by exactly one draw per call, independent of n and worker
// count, so later draws stay aligned across configurations.
func TestGenerateRNGAdvanceIsCallInvariant(t *testing.T) {
	a := genTestModel(t, 1)
	a.Reseed(7)
	a.Generate(3)
	b := genTestModel(t, 4)
	b.Reseed(7)
	b.Generate(61)
	if a.Rand().Int63() != b.Rand().Int63() {
		t.Fatal("RNG advance depends on n or parallelism")
	}
}

func TestGenerateSampleShapes(t *testing.T) {
	m := genTestModel(t, 2)
	m.Reseed(5)
	for _, s := range m.Generate(50) {
		if len(s.Meta) != m.metaW {
			t.Fatalf("meta width %d, want %d", len(s.Meta), m.metaW)
		}
		if len(s.Features) < 1 || len(s.Features) > m.Config.MaxLen {
			t.Fatalf("sequence length %d out of [1, %d]", len(s.Features), m.Config.MaxLen)
		}
		for _, f := range s.Features {
			if len(f) != m.featW-1 {
				t.Fatalf("feature width %d, want %d", len(f), m.featW-1)
			}
		}
	}
	if m.Generate(0) != nil {
		t.Fatal("Generate(0) must return nil")
	}
}

// TestGenerateConcurrentCallsSafe drives one model from Generate while lots
// run on pooled scratch, twice in a row, to give the race detector coverage
// of the scratch pool and worker fan-out.
func TestGenerateScratchReuseAcrossCalls(t *testing.T) {
	m := genTestModel(t, 4)
	m.Reseed(11)
	first := m.Generate(40)
	second := m.Generate(40)
	if reflect.DeepEqual(first, second) {
		t.Fatal("consecutive calls must use fresh lot streams")
	}
	m.Reseed(11)
	if !reflect.DeepEqual(first, m.Generate(40)) {
		t.Fatal("reseeded call must reproduce the first output exactly")
	}
}

// cloneSample deep-copies a sample, since GenerateEach reuses its buffers.
func cloneSample(s Sample) Sample {
	c := Sample{Meta: append([]float64(nil), s.Meta...), Label: s.Label}
	for _, f := range s.Features {
		c.Features = append(c.Features, append([]float64(nil), f...))
	}
	return c
}

// TestGenerateEachMatchesGenerate: the streamed path delivers exactly the
// samples Generate returns, in order, in slices of whole lots spanning
// several consumer windows (the last lot short), advances the model RNG by
// the same single draw, and stops generating when the consumer says so.
func TestGenerateEachMatchesGenerate(t *testing.T) {
	const n = 700 // several windows at either worker count; 700 % 8 != 0
	for _, p := range []int{1, 2} {
		m := genTestModel(t, p)
		m.Reseed(99)
		want := m.Generate(n)
		next := m.Rand().Int63()

		m.Reseed(99)
		var got []Sample
		calls := 0
		if err := m.GenerateEach(nil, n, -1, func(batch []Sample) bool {
			calls++
			if len(got)+len(batch) < n && len(batch)%m.Config.Batch != 0 {
				t.Fatalf("parallelism %d: slice of %d samples is not whole lots", p, len(batch))
			}
			for _, s := range batch {
				got = append(got, cloneSample(s))
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if calls < 2 {
			t.Fatalf("parallelism %d: %d consumer calls, want several windows", p, calls)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("parallelism %d: GenerateEach samples differ from Generate", p)
		}
		if m.Rand().Int63() != next {
			t.Fatalf("parallelism %d: GenerateEach advanced the RNG differently from Generate", p)
		}

		m.Reseed(99)
		calls = 0
		_ = m.GenerateEach(nil, n, -1, func(batch []Sample) bool {
			calls++
			return false
		})
		if calls != 1 {
			t.Fatalf("parallelism %d: consumer called %d times after asking to stop", p, calls)
		}
	}
}

func BenchmarkGenerate(b *testing.B) {
	for _, p := range []int{1, 4} {
		b.Run(map[int]string{1: "serial", 4: "par4"}[p], func(b *testing.B) {
			m := genTestModel(b, p)
			m.Reseed(3)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Generate(256)
			}
		})
	}
}

func BenchmarkGenerateBaseline(b *testing.B) {
	m := genTestModel(b, 1)
	m.Reseed(3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.GenerateBaseline(256)
	}
}
