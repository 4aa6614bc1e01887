package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/container"
	"repro/internal/datasets"
	"repro/internal/orchestrator"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// savable is either synthesizer kind.
type savable interface{ Save(io.Writer) error }

// saved returns a synthesizer's Save bytes.
func saved(t *testing.T, syn savable) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := syn.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// containerSHA256 returns the hex SHA-256 of a synthesizer's Save bytes.
func containerSHA256(t *testing.T, syn savable) string {
	t.Helper()
	sum := sha256.Sum256(saved(t, syn))
	return hex.EncodeToString(sum[:])
}

// requireOneContainer runs one training configuration through every path
// that must yield the same container — a plain training, an identical
// second one, the plan's tasks run one by one and assembled, a run killed
// at chunk 2 and resumed from its checkpoints, and a run whose chunk 1
// fails once and is retried — and requires one SHA-256 of them all.
func requireOneContainer(t *testing.T, train func(TrainOptions) (savable, error), assemble func() (savable, error)) {
	t.Helper()
	sums := map[string]string{}
	add := func(name string, syn savable, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sums[name] = containerSHA256(t, syn)
	}
	syn, err := train(TrainOptions{})
	add("trained", syn, err)
	syn, err = train(TrainOptions{})
	add("retrained", syn, err)
	syn, err = assemble()
	add("plan-assembled", syn, err)

	dir := t.TempDir()
	_, err = train(TrainOptions{Orchestration: &orchestrator.Options{
		Dir: dir,
		FailChunk: func(idx, attempt int) error {
			if idx == 2 {
				return orchestrator.Abort(fmt.Errorf("simulated crash"))
			}
			return nil
		},
	}})
	if !orchestrator.IsAbort(err) {
		t.Fatalf("crash run: err = %v, want abort", err)
	}
	syn, err = train(TrainOptions{Orchestration: &orchestrator.Options{Dir: dir, Resume: true}})
	add("crashed-and-resumed", syn, err)

	syn, err = train(TrainOptions{Orchestration: &orchestrator.Options{
		MaxRetries: 1,
		Sleep:      func(time.Duration) {},
		FailChunk: func(idx, attempt int) error {
			if idx == 1 && attempt == 0 {
				return fmt.Errorf("transient fault")
			}
			return nil
		},
	}})
	add("retried", syn, err)

	for name, got := range sums {
		if got != sums["trained"] {
			t.Errorf("%s container SHA-256 differs from a plain training's: %v", name, sums)
			break
		}
	}
}

// TestContainerSHA256Contract: a saved synthesizer is a function of
// (data, config, seed) alone. Identical trainings, the plan-assembled
// synthesizer, a crashed-and-resumed run and a retried run save the same
// bytes, for both trace kinds.
func TestContainerSHA256Contract(t *testing.T) {
	public := datasets.CAIDAChicago(600, 52)
	cfg := resumeConfig()

	t.Run("flow", func(t *testing.T) {
		real := datasets.UGR16(200, 51)
		requireOneContainer(t,
			func(opts TrainOptions) (savable, error) {
				return TrainFlowSynthesizerOpts(real, public, cfg, opts)
			},
			func() (savable, error) {
				plan, err := PlanFlowTraining(real, public, cfg)
				if err != nil {
					return nil, err
				}
				return plan.Assemble(runPlanTasks(t, &plan.chunkPlan))
			})
	})
	t.Run("packet", func(t *testing.T) {
		real := datasets.CAIDA(400, 53)
		requireOneContainer(t,
			func(opts TrainOptions) (savable, error) {
				return TrainPacketSynthesizerOpts(real, public, cfg, opts)
			},
			func() (savable, error) {
				plan, err := PlanPacketTraining(real, public, cfg)
				if err != nil {
					return nil, err
				}
				return plan.Assemble(runPlanTasks(t, &plan.chunkPlan))
			})
	})
}

// runPlanTasks runs a plan's tasks the way a cluster worker does: the
// seed encoded to bytes, every fine-tune warm-started from those bytes.
func runPlanTasks(t *testing.T, p *chunkPlan) [][]byte {
	t.Helper()
	seed, err := p.TrainSeedChunk()
	if err != nil {
		t.Fatal(err)
	}
	encoded := [][]byte{seed}
	for idx := 1; idx < p.Chunks(); idx++ {
		m, err := p.FineTuneChunk(idx, seed)
		if err != nil {
			t.Fatal(err)
		}
		encoded = append(encoded, m)
	}
	return encoded
}

// TestDPResumeKeepsEpsilon: a DP run resumed from its checkpoint directory
// restores the seed chunk instead of training it, and must still report —
// and save — the ε the training run spent. That ε is the accountant's own
// figure, bit for bit.
func TestDPResumeKeepsEpsilon(t *testing.T) {
	real := datasets.UGR16(150, 55)
	public := datasets.CAIDAChicago(600, 56)
	cfg := resumeConfig()
	cfg.Chunks = 1
	cfg.SeedSteps = 12
	cfg.DP = &DPConfig{NoiseMultiplier: 1.1, ClipNorm: 1.0, Delta: 1e-5, Pretrain: true, PretrainSteps: 5}

	prevEnabled := telemetry.Default.Enabled()
	defer telemetry.Default.SetEnabled(prevEnabled)
	telemetry.Default.SetEnabled(true)

	dir := t.TempDir()
	fresh, err := TrainFlowSynthesizerOpts(real, public, cfg, TrainOptions{
		Orchestration: &orchestrator.Options{Dir: dir},
	})
	if err != nil {
		t.Fatal(err)
	}
	eps := fresh.Stats().Epsilon
	if eps <= 0 || math.IsInf(eps, 0) || math.IsNaN(eps) {
		t.Fatalf("fresh DP run epsilon = %v, want a positive finite value", eps)
	}
	if spent := telEpsilon.Value(); spent != eps {
		t.Fatalf("reported epsilon %v differs from the accountant's %v", eps, spent)
	}

	resumed, err := TrainFlowSynthesizerOpts(real, public, cfg, TrainOptions{
		Orchestration: &orchestrator.Options{Dir: dir, Resume: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := resumed.Stats(); !st.ChunkResumed[0] || st.Epsilon != eps {
		t.Fatalf("resumed run: chunk resumed %v, epsilon %v, want true and %v", st.ChunkResumed, st.Epsilon, eps)
	}
	if a, b := containerSHA256(t, fresh), containerSHA256(t, resumed); a != b {
		t.Fatalf("resumed DP container %s differs from the trained one %s", b, a)
	}
}

// TestLoadContainersWithRunCosts: containers written while the whole Stats
// (CPU, wall and seed time, attempts, losses) was part of the wire still
// load, keep their chunk sample counts and ε, and generate the bytes the
// current format generates.
func TestLoadContainersWithRunCosts(t *testing.T) {
	flow, pkt := trainedSynthesizers(t)
	withCosts := func(st Stats) Stats {
		st.CPUTime, st.WallTime, st.SeedTime = 3*time.Second, 2*time.Second, time.Second
		st.ChunkAttempts = make([]int, len(st.ChunkSamples))
		st.Epsilon = 2.5
		return st
	}
	wantStats := func(got, legacy Stats) {
		t.Helper()
		if !reflect.DeepEqual(got.ChunkSamples, legacy.ChunkSamples) || got.Epsilon != legacy.Epsilon {
			t.Fatalf("loaded stats %+v, want chunk samples %v and epsilon %v", got, legacy.ChunkSamples, legacy.Epsilon)
		}
		if got.CPUTime != 0 || got.ChunkAttempts != nil {
			t.Fatalf("loaded stats %+v carry run costs", got)
		}
	}

	legacyStats := withCosts(flow.stats)
	oldFlow, err := LoadFlowSynthesizer(bytes.NewReader(legacyFlowContainer(t, flow, container.KindFlowModel, legacyStats)))
	if err != nil {
		t.Fatal(err)
	}
	newFlow, err := LoadFlowSynthesizer(bytes.NewReader(saved(t, flow)))
	if err != nil {
		t.Fatal(err)
	}
	wantStats(oldFlow.Stats(), legacyStats)
	if !bytes.Equal(flowCSV(t, oldFlow, 300), flowCSV(t, newFlow, 300)) {
		t.Fatal("flow container with run costs generates other bytes")
	}

	legacyStats = withCosts(pkt.stats)
	oldPkt, err := LoadPacketSynthesizer(bytes.NewReader(legacyPacketContainer(t, pkt, container.KindPacketMdl, legacyStats)))
	if err != nil {
		t.Fatal(err)
	}
	newPkt, err := LoadPacketSynthesizer(bytes.NewReader(saved(t, pkt)))
	if err != nil {
		t.Fatal(err)
	}
	wantStats(oldPkt.Stats(), legacyStats)
	var a, b bytes.Buffer
	if err := trace.WritePacketCSV(&a, oldPkt.Generate(300)); err != nil {
		t.Fatal(err)
	}
	if err := trace.WritePacketCSV(&b, newPkt.Generate(300)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("packet container with run costs generates other bytes")
	}
}
