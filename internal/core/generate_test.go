package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/datasets"
	"repro/internal/dgan"
	"repro/internal/encoding"
	"repro/internal/ip2vec"
	"repro/internal/rng"
	"repro/internal/trace"
)

// reseedGen puts every chunk model back on its canonical generation stream,
// as trainChunks and the synthesizer loaders do, so repeated Generate calls
// in a test start from identical RNG state.
func reseedGen(models []sampler, seed int64) {
	for i, m := range models {
		m.(*dgan.Model).Reseed(rng.Derive(seed, genStream+int64(i)))
	}
}

// TestFlowGenerateGolden is the pipeline's end-to-end determinism check:
// the same trained weights and generation seed must emit a byte-identical
// trace at parallelism 1, 2, and 4, and after a save/load round trip.
func TestFlowGenerateGolden(t *testing.T) {
	real := datasets.UGR16(300, 31)
	public := datasets.CAIDAChicago(1200, 32)
	cfg := testConfig()
	syn, err := TrainFlowSynthesizer(real, public, cfg)
	if err != nil {
		t.Fatal(err)
	}

	const n = 250
	syn.SetParallelism(1)
	reseedGen(syn.models, cfg.Seed)
	ref := syn.Generate(n)
	if len(ref.Records) != n {
		t.Fatalf("generated %d records, want %d", len(ref.Records), n)
	}
	for _, p := range []int{2, 4, 0} {
		syn.SetParallelism(p)
		reseedGen(syn.models, cfg.Seed)
		got := syn.Generate(n)
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("parallelism %d trace diverges from serial", p)
		}
	}

	// Save/load: the loader reseeds onto the same canonical streams, so the
	// first generation after load matches the first after training exactly.
	var buf bytes.Buffer
	if err := syn.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFlowSynthesizer(&buf)
	if err != nil {
		t.Fatal(err)
	}
	loaded.SetParallelism(3)
	if got := loaded.Generate(n); !reflect.DeepEqual(ref, got) {
		t.Fatal("loaded synthesizer trace diverges from the trained one")
	}
}

// TestPacketGenerateGolden mirrors the flow check for the packet pipeline.
func TestPacketGenerateGolden(t *testing.T) {
	real := datasets.CAIDA(600, 33)
	public := datasets.CAIDAChicago(1200, 34)
	cfg := testConfig()
	syn, err := TrainPacketSynthesizer(real, public, cfg)
	if err != nil {
		t.Fatal(err)
	}

	const n = 300
	syn.SetParallelism(1)
	reseedGen(syn.models, cfg.Seed)
	ref := syn.Generate(n)
	if len(ref.Packets) != n {
		t.Fatalf("generated %d packets, want %d", len(ref.Packets), n)
	}
	syn.SetParallelism(4)
	reseedGen(syn.models, cfg.Seed)
	if got := syn.Generate(n); !reflect.DeepEqual(ref, got) {
		t.Fatal("parallel packet trace diverges from serial")
	}

	var buf bytes.Buffer
	if err := syn.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPacketSynthesizer(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.Generate(n); !reflect.DeepEqual(ref, got) {
		t.Fatal("loaded synthesizer trace diverges from the trained one")
	}
}

// TestDecodeTuplesMatchesPerSample: the batched tuple decode (one matmul per
// kind) must agree with the per-sample decodeMeta path on every field.
func TestDecodeTuplesMatchesPerSample(t *testing.T) {
	public := datasets.CAIDAChicago(1500, 41)
	cfg := testConfig()
	pe, err := newPortEmbedding(public, cfg.EmbedDim, cfg.EmbedEpochs, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	codec := newFlowCodec(cfg, pe, datasets.UGR16(200, 42))

	// Encode real tuples, perturb the embeddings slightly so the decode has
	// to do a genuine nearest-neighbour search, and duplicate some rows.
	real := datasets.UGR16(120, 43)
	var samples []dgan.Sample
	for _, r := range real.Records {
		meta := codec.encodeMeta(r.Tuple, trace.FlowTags{})
		for i := range meta {
			meta[i] += 0.003 * float64(i%5)
		}
		samples = append(samples, dgan.Sample{Meta: meta})
	}
	samples = append(samples, samples[:40]...)

	tuples := decodeTuples(codec.embed, codec.ipEmbed, samples)
	if len(tuples) != len(samples) {
		t.Fatalf("decoded %d tuples for %d samples", len(tuples), len(samples))
	}
	for i, s := range samples {
		if want := codec.decodeMeta(s.Meta); tuples[i] != want {
			t.Fatalf("sample %d: batched %+v != per-sample %+v", i, tuples[i], want)
		}
	}
	// A second pass must agree.
	again := decodeTuples(codec.embed, codec.ipEmbed, samples)
	if !reflect.DeepEqual(tuples, again) {
		t.Fatal("second decode pass diverges")
	}
}

// TestDecodeEmptyKindFallbacks: a dictionary missing a whole word kind must
// decode to the explicit fallbacks (first known port / TCP), never fabricate
// vocabulary. Regression test for the found=false path.
func TestDecodeEmptyKindFallbacks(t *testing.T) {
	// Sentences with ports but no protocol words.
	sentences := [][]ip2vec.Word{
		{ip2vec.IPWord(1), ip2vec.PortWord(80)},
		{ip2vec.IPWord(2), ip2vec.PortWord(443)},
		{ip2vec.IPWord(3), ip2vec.PortWord(53)},
	}
	icfg := ip2vec.DefaultConfig()
	icfg.Dim = 4
	model, err := ip2vec.Train(sentences, icfg)
	if err != nil {
		t.Fatal(err)
	}
	pe := &portEmbedding{model: model, dim: icfg.Dim, ports: model.Words(ip2vec.KindPort)}
	pe.norms = make([]encoding.MinMax, icfg.Dim)
	for d := range pe.norms {
		pe.norms[d].Fit([]float64{-1, 1})
	}

	v := make([]float64, icfg.Dim)
	if got := pe.decodeProto(v); got != trace.TCP {
		t.Fatalf("empty proto vocabulary decoded to %v, want TCP", got)
	}
	protos := pe.decodeKindBatch(ip2vec.KindProto, [][]float64{v, v}, uint32(trace.TCP))
	for _, p := range protos {
		if trace.Protocol(p) != trace.TCP {
			t.Fatalf("batched empty-proto decode = %v, want TCP", p)
		}
	}
	// Ports are present: decode resolves a real word.
	if got := pe.decodePort(v); got != 53 && got != 80 && got != 443 {
		t.Fatalf("port decode fabricated %d", got)
	}

	// No port vocabulary at all: the numeric fallback is port 0.
	empty := &portEmbedding{model: model, dim: icfg.Dim}
	if got := empty.fallbackPort(); got != 0 {
		t.Fatalf("empty port fallback = %d, want 0", got)
	}
}

func TestFullLots(t *testing.T) {
	if got := fullLots(100, 16); got != 64 {
		t.Fatalf("fullLots(100, 16) = %d, want 64", got)
	}
	if got := fullLots(1, 16); got != 16 {
		t.Fatalf("fullLots(1, 16) = %d, want a full lot", got)
	}
	if got := fullLots(32, 16); got%16 != 0 || got < 16 {
		t.Fatalf("fullLots(32, 16) = %d, want a lot multiple", got)
	}
}

// TestGenerateFreshMatchesFreshLoad pins the stateless generate the web
// API serves from one cached synthesizer: every call, concurrent or not,
// equals the first Generate/GenerateLabeled of a freshly loaded copy, and
// it never advances the synthesizer's own generation streams.
func TestGenerateFreshMatchesFreshLoad(t *testing.T) {
	// Bitwise equality needs no trained quality, only a conditional model
	// with several catalog labels, so a few steps suffice.
	cfg := condTestConfig()
	cfg.SeedSteps, cfg.FineTuneSteps = 20, 5
	flow, err := TrainFlowSynthesizer(labeledTrace(300, 11), datasets.CAIDAChicago(1200, 12), cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, pkt := trainedSynthesizers(t)
	var flowBuf, pktBuf bytes.Buffer
	if err := flow.Save(&flowBuf); err != nil {
		t.Fatal(err)
	}
	if err := pkt.Save(&pktBuf); err != nil {
		t.Fatal(err)
	}
	loadFlow := func() *FlowSynthesizer {
		s, err := LoadFlowSynthesizer(bytes.NewReader(flowBuf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	loadPacket := func() *PacketSynthesizer {
		s, err := LoadPacketSynthesizer(bytes.NewReader(pktBuf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	catalog := flow.LabelCatalog()
	type flowCase struct{ n, label int }
	var flowCases []flowCase
	for _, n := range []int{37, 400} {
		for _, label := range []int{-1, int(catalog[0]), int(catalog[1])} {
			flowCases = append(flowCases, flowCase{n, label})
		}
	}
	flowWant := make([]*trace.FlowTrace, len(flowCases))
	for i, c := range flowCases {
		ref := loadFlow()
		if c.label < 0 {
			flowWant[i] = ref.Generate(c.n)
		} else if flowWant[i], err = ref.GenerateLabeled(c.n, trace.Label(c.label)); err != nil {
			t.Fatal(err)
		}
	}
	pktCounts := []int{37, 400}
	pktWant := make([]*trace.PacketTrace, len(pktCounts))
	for i, n := range pktCounts {
		pktWant[i] = loadPacket().Generate(n)
	}

	// The trained synthesizers have already generated (their own streams
	// have advanced), and every case runs twice at once on the one shared
	// synthesizer.
	flow.Generate(50)
	pkt.Generate(50)
	var wg sync.WaitGroup
	for rep := 0; rep < 2; rep++ {
		for i, c := range flowCases {
			wg.Add(1)
			go func(i int, c flowCase) {
				defer wg.Done()
				got, err := flow.GenerateFresh(c.n, c.label)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, flowWant[i]) {
					t.Errorf("flow GenerateFresh(%d, %d) differs from a fresh load", c.n, c.label)
				}
			}(i, c)
		}
		for i, n := range pktCounts {
			wg.Add(1)
			go func(i, n int) {
				defer wg.Done()
				if got := pkt.GenerateFresh(n); !reflect.DeepEqual(got, pktWant[i]) {
					t.Errorf("packet GenerateFresh(%d) differs from a fresh load", n)
				}
			}(i, n)
		}
	}
	wg.Wait()

	// GenerateFresh leaves the canonical streams untouched: a loaded copy
	// still emits its first-load trace from Generate afterwards.
	ref := loadFlow()
	if _, err := ref.GenerateFresh(200, -1); err != nil {
		t.Fatal(err)
	}
	if got := ref.Generate(flowCases[0].n); !reflect.DeepEqual(got, flowWant[0]) {
		t.Fatal("GenerateFresh advanced the synthesizer's own generation streams")
	}

	if _, err := flow.GenerateFresh(10, int(trace.NumLabels)); err == nil {
		t.Fatal("out-of-range label must fail")
	}
	plain, _ := trainedSynthesizers(t)
	if _, err := plain.GenerateFresh(10, int(trace.DoS)); err == nil {
		t.Fatal("a label on an unconditional model must fail")
	}
}

// TestGenerateCountsClamp: every generate entry point, on both precisions,
// returns exactly max(n, 0) records or packets; a negative count is an
// empty trace, not a panic.
func TestGenerateCountsClamp(t *testing.T) {
	cfg := condTestConfig()
	cfg.SeedSteps, cfg.FineTuneSteps = 20, 5
	flow, err := TrainFlowSynthesizer(labeledTrace(300, 11), datasets.CAIDAChicago(1200, 12), cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, pkt := trainedSynthesizers(t)
	label := flow.LabelCatalog()[0]
	for _, prec := range []struct {
		name string
		flow *FlowSynthesizer
		pkt  *PacketSynthesizer
	}{{"float64", flow, pkt}, {"float32", flow.Fast(), pkt.Fast()}} {
		for _, n := range []int{-5, 0, 1} {
			want := max(n, 0)
			flowCalls := []struct {
				name string
				run  func() (*trace.FlowTrace, error)
			}{
				{"Generate", func() (*trace.FlowTrace, error) { return prec.flow.Generate(n), nil }},
				{"GenerateFresh", func() (*trace.FlowTrace, error) { return prec.flow.GenerateFresh(n, -1) }},
				{"GenerateLabeled", func() (*trace.FlowTrace, error) { return prec.flow.GenerateLabeled(n, label) }},
				{"GenerateBatch", func() (*trace.FlowTrace, error) { return prec.flow.GenerateBatch([]int{n, 2})[0], nil }},
			}
			for _, c := range flowCalls {
				got, err := c.run()
				if err != nil {
					t.Fatalf("%s flow %s(%d): %v", prec.name, c.name, n, err)
				}
				if len(got.Records) != want {
					t.Fatalf("%s flow %s(%d): %d records, want %d", prec.name, c.name, n, len(got.Records), want)
				}
			}
			pktCalls := []struct {
				name string
				run  func() *trace.PacketTrace
			}{
				{"Generate", func() *trace.PacketTrace { return prec.pkt.Generate(n) }},
				{"GenerateFresh", func() *trace.PacketTrace { return prec.pkt.GenerateFresh(n) }},
				{"GenerateBatch", func() *trace.PacketTrace { return prec.pkt.GenerateBatch([]int{n, 2})[0] }},
			}
			for _, c := range pktCalls {
				if got := c.run(); len(got.Packets) != want {
					t.Fatalf("%s packet %s(%d): %d packets, want %d", prec.name, c.name, n, len(got.Packets), want)
				}
			}
		}
	}
}

// SHA-256 pins for TestGenerateOutputPinned. They change only when a change
// alters trained weights or generated bytes on purpose; such a change
// updates them and says so in CHANGES.md.
const (
	flowGoldenSHA256          = "1aacc4434212cf3bf38f8da57534fc08c2fa027ba975305448a380da051b4644"
	packetGoldenSHA256        = "54b94fd0dc8f750be2194dabe8a0cadc2610269e4c564db8e279621072a4d638"
	flowWeightsGoldenSHA256   = "0ddb5522d31327967f8abc800ddf0848f499ea475db657d21691edfb306811a1"
	packetWeightsGoldenSHA256 = "d0114e79dc3d42c9a20b0b0dc79c2517c9b162b056f43d34c3b7f4368893e862"
)

// weightsSHA256 hashes the bits of every parameter of every chunk model.
// Generated records are integers, so a last-bit change in training can
// leave a short trace intact; the weights cannot hide it.
func weightsSHA256(models []sampler) string {
	h := sha256.New()
	var b [8]byte
	for _, m := range models {
		for _, p := range m.(*dgan.Model).Params() {
			for _, v := range p.W.Data {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestGenerateOutputPinned pins trained weights and generated bytes across
// versions. The golden tests above compare a run only with itself (other
// parallelism levels, a save/load round trip), so a kernel change that
// alters rounding passes them; this test instead trains the testConfig flow
// and packet synthesizers and asserts the SHA-256 of their weights and of
// their first Generate(250) CSV. It runs on amd64 only: Go fuses
// multiply-add on other architectures (arm64, ppc64le, s390x, riscv64),
// which legitimately changes the bits.
func TestGenerateOutputPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("output pins are recorded for amd64, not %s", runtime.GOARCH)
	}
	const n = 250
	cfg := testConfig()
	check := func(what, got, want string) {
		t.Helper()
		if got != want {
			t.Errorf("%s SHA-256 = %s, want %s", what, got, want)
		}
	}
	csvSHA256 := func(write func(*bytes.Buffer) error) string {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
	}

	flow, err := TrainFlowSynthesizer(datasets.UGR16(300, 31), datasets.CAIDAChicago(1200, 32), cfg)
	if err != nil {
		t.Fatal(err)
	}
	check("flow weights", weightsSHA256(flow.models), flowWeightsGoldenSHA256)
	ft := flow.Generate(n)
	check("flow Generate(250)", csvSHA256(func(b *bytes.Buffer) error { return trace.WriteFlowCSV(b, ft) }), flowGoldenSHA256)

	packet, err := TrainPacketSynthesizer(datasets.CAIDA(600, 33), datasets.CAIDAChicago(1200, 34), cfg)
	if err != nil {
		t.Fatal(err)
	}
	check("packet weights", weightsSHA256(packet.models), packetWeightsGoldenSHA256)
	pt := packet.Generate(n)
	check("packet Generate(250)", csvSHA256(func(b *bytes.Buffer) error { return trace.WritePacketCSV(b, pt) }), packetGoldenSHA256)
}

// SHA-256 pins for TestFastGenerateOutputPinned, recorded before the
// float64 and float32 synthesizers shared one type; the float32 path must
// keep emitting these bytes.
const (
	fastFlowBatchSHA256   = "9995d0ae1648df57480ee4d72c840b70f2b7f8dcc0c0d9623f29d5ee61ecd2fb"
	fastFlowLabeledSHA256 = "e906ed374a83cefec9be8a5dd97f00b2b0985d594392582c714c646d508efb2e"
	fastPacketBatchSHA256 = "d003313e7af237ce716780b45ea4ecf7b5d257d5202e893885dc5e5b5e423853"
)

// TestFastGenerateOutputPinned pins the float32 serving path's bytes the
// way TestGenerateOutputPinned pins the float64 path's: a two-request
// GenerateBatch of the testConfig flow and packet snapshots and a labeled
// batch of a conditional flow snapshot, hashed as concatenated CSV. It
// runs on amd64 only, for the reason TestGenerateOutputPinned gives.
func TestFastGenerateOutputPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("output pins are recorded for amd64, not %s", runtime.GOARCH)
	}
	counts := []int{250, 97}
	flowSHA256 := func(outs []*trace.FlowTrace) string {
		h := sha256.New()
		for _, out := range outs {
			if err := trace.WriteFlowCSV(h, out); err != nil {
				t.Fatal(err)
			}
		}
		return fmt.Sprintf("%x", h.Sum(nil))
	}
	check := func(what, got, want string) {
		t.Helper()
		if got != want {
			t.Errorf("%s SHA-256 = %s, want %s", what, got, want)
		}
	}

	flow, err := TrainFlowSynthesizer(datasets.UGR16(300, 31), datasets.CAIDAChicago(1200, 32), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	check("fast flow GenerateBatch", flowSHA256(flow.Fast().GenerateBatch(counts)), fastFlowBatchSHA256)

	cfg := condTestConfig()
	cfg.SeedSteps, cfg.FineTuneSteps = 20, 5
	cond, err := TrainFlowSynthesizer(labeledTrace(300, 11), datasets.CAIDAChicago(1200, 12), cfg)
	if err != nil {
		t.Fatal(err)
	}
	labeled, err := cond.Fast().GenerateLabeledBatch(counts, cond.LabelCatalog()[1])
	if err != nil {
		t.Fatal(err)
	}
	check("fast flow GenerateLabeledBatch", flowSHA256(labeled), fastFlowLabeledSHA256)

	packet, err := TrainPacketSynthesizer(datasets.CAIDA(600, 33), datasets.CAIDAChicago(1200, 34), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, out := range packet.Fast().GenerateBatch(counts) {
		if err := trace.WritePacketCSV(h, out); err != nil {
			t.Fatal(err)
		}
	}
	check("fast packet GenerateBatch", fmt.Sprintf("%x", h.Sum(nil)), fastPacketBatchSHA256)
}
