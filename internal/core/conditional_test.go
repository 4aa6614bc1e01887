package core

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/datasets"
	"repro/internal/trace"
)

// labeledTrace synthesizes a flow trace with a heavy attack share so every
// scenario label in the mix is well represented in every chunk.
func labeledTrace(records int, seed int64) *trace.FlowTrace {
	return datasets.GenerateFlows(datasets.FlowConfig{
		Name: "cond", Seed: seed, Records: records,
		TimeSpan:  60_000_000,
		NumSrcIPs: 64, NumDstIPs: 48, IPZipf: 1.1,
		Ports:    []datasets.PortWeight{{Port: 443, Weight: 3}, {Port: 53, Weight: 1}},
		TCPShare: 0.7, UDPShare: 0.25,
		PktMu: 1.4, PktSigma: 1.2,
		MinBytesPerPkt: 40, MaxBytesPerPkt: 1500,
		DurPerPktUS:     800,
		MultiRecordProb: 0.1, MaxExtraRecords: 3,
		AttackFraction: 0.6,
		AttackMix:      []trace.Label{trace.DoS, trace.PortScan, trace.BruteForce},
	})
}

func condTestConfig() Config {
	cfg := testConfig()
	cfg.Chunks = 2
	cfg.SeedSteps = 80
	cfg.FineTuneSteps = 30
	cfg.Conditional = true
	return cfg
}

func TestConditionalConfigHashDiffers(t *testing.T) {
	plain := testConfig()
	cond := plain
	cond.Conditional = true
	if plain.hash() == cond.hash() {
		t.Fatal("Conditional must change the checkpoint config hash")
	}
}

func TestConditionalFlowSynthesizer(t *testing.T) {
	real := labeledTrace(300, 11)
	public := datasets.CAIDAChicago(1200, 12)
	cfg := condTestConfig()
	syn, err := TrainFlowSynthesizer(real, public, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !syn.Conditional() {
		t.Fatal("synthesizer must report Conditional")
	}
	catalog := syn.LabelCatalog()
	if len(catalog) < 3 {
		t.Fatalf("label catalog %v, want at least 3 scenarios", catalog)
	}

	// Mixture generation still works and emits only catalog labels' worth
	// of records (stamped per-record by the label feature argmax).
	gen := syn.Generate(120)
	if len(gen.Records) != 120 {
		t.Fatalf("generated %d records", len(gen.Records))
	}

	// Pinned generation stamps every record with the requested scenario.
	for _, label := range catalog {
		pinned, err := syn.GenerateLabeled(60, label)
		if err != nil {
			t.Fatal(err)
		}
		if len(pinned.Records) != 60 {
			t.Fatalf("label %v: generated %d records", label, len(pinned.Records))
		}
		for _, r := range pinned.Records {
			if r.Label != label {
				t.Fatalf("pinned %v but record carries %v", label, r.Label)
			}
		}
	}
	if _, err := syn.GenerateLabeled(10, trace.NumLabels); err == nil {
		t.Fatal("out-of-range label must fail")
	}

	// The fast snapshot carries the conditioning through the float32 path
	// and its infer wire format.
	fast := syn.Fast()
	if !fast.Conditional() {
		t.Fatal("fast snapshot must stay conditional")
	}
	if !reflect.DeepEqual(fast.LabelCatalog(), catalog) {
		t.Fatalf("fast catalog %v != reference catalog %v", fast.LabelCatalog(), catalog)
	}
	outs, err := fast.GenerateLabeledBatch([]int{40, 25}, catalog[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(outs[0].Records) != 40 || len(outs[1].Records) != 25 {
		t.Fatalf("batched counts %d/%d", len(outs[0].Records), len(outs[1].Records))
	}
	for _, out := range outs {
		for _, r := range out.Records {
			if r.Label != catalog[0] {
				t.Fatalf("fast pinned %v but record carries %v", catalog[0], r.Label)
			}
		}
	}
	if _, err := fast.GenerateLabeledBatch([]int{5}, trace.NumLabels); err == nil {
		t.Fatal("fast out-of-range label must fail")
	}

	// Golden byte-identity: saving a labeled synthesizer twice yields the
	// same container, and a load→save round trip preserves every byte.
	var first, second bytes.Buffer
	if err := syn.Save(&first); err != nil {
		t.Fatal(err)
	}
	if err := syn.Save(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("labeled container save is not deterministic")
	}
	loaded, err := LoadFlowSynthesizer(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var resaved bytes.Buffer
	if err := loaded.Save(&resaved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), resaved.Bytes()) {
		t.Fatal("labeled container load→save round trip not byte-identical")
	}
	if !reflect.DeepEqual(loaded.LabelCatalog(), catalog) {
		t.Fatalf("loaded catalog %v != %v", loaded.LabelCatalog(), catalog)
	}
	// Two loads of the same container start on the same canonical
	// generation streams, so their labeled output is bitwise identical.
	loaded2, err := LoadFlowSynthesizer(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	lg, err := loaded.GenerateLabeled(30, catalog[1])
	if err != nil {
		t.Fatal(err)
	}
	lg2, err := loaded2.GenerateLabeled(30, catalog[1])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lg, lg2) {
		t.Fatal("loaded synthesizer's labeled generation is not deterministic")
	}

	// Fast container round trip.
	var fastBuf bytes.Buffer
	if err := fast.Save(&fastBuf); err != nil {
		t.Fatal(err)
	}
	fastLoaded, err := LoadFlowSynthesizer(bytes.NewReader(fastBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !fastLoaded.Conditional() || !reflect.DeepEqual(fastLoaded.LabelCatalog(), catalog) {
		t.Fatalf("fast load lost conditioning: catalog %v", fastLoaded.LabelCatalog())
	}
	var fastResaved bytes.Buffer
	if err := fastLoaded.Save(&fastResaved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fastBuf.Bytes(), fastResaved.Bytes()) {
		t.Fatal("labeled fast container round trip not byte-identical")
	}
}

func TestUnconditionalGenerateLabeledRejected(t *testing.T) {
	real := datasets.UGR16(200, 21)
	public := datasets.CAIDAChicago(800, 22)
	cfg := testConfig()
	cfg.Chunks = 1
	cfg.SeedSteps = 40
	syn, err := TrainFlowSynthesizer(real, public, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if syn.Conditional() {
		t.Fatal("plain config must not be conditional")
	}
	if got := syn.LabelCatalog(); got != nil {
		t.Fatalf("unconditional catalog must be empty, got %v", got)
	}
	if _, err := syn.GenerateLabeled(10, trace.DoS); err == nil {
		t.Fatal("GenerateLabeled on an unconditional model must fail")
	}
	if _, err := syn.Fast().GenerateLabeledBatch([]int{10}, trace.DoS); err == nil {
		t.Fatal("fast GenerateLabeledBatch on an unconditional model must fail")
	}
}

func TestPacketTrainingRejectsConditional(t *testing.T) {
	real := datasets.CAIDA(300, 31)
	public := datasets.CAIDAChicago(600, 32)
	cfg := testConfig()
	cfg.Conditional = true
	if _, err := TrainPacketSynthesizer(real, public, cfg); err == nil {
		t.Fatal("packet training must reject Conditional")
	}
}
