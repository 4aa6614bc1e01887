package core

import (
	"bytes"
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/container"
	"repro/internal/datasets"
	"repro/internal/trace"
)

// fastFixture trains each synthesizer once and shares it across the fast-
// path tests (training dominates their runtime; the snapshot under test is
// cheap to rebuild per test).
var fastFixture struct {
	once sync.Once
	flow *FlowSynthesizer
	pkt  *PacketSynthesizer
	err  error
}

func fastTestConfig() Config {
	cfg := testConfig()
	cfg.Chunks = 2
	cfg.SeedSteps = 60
	cfg.FineTuneSteps = 20
	return cfg
}

func trainedSynthesizers(t *testing.T) (*FlowSynthesizer, *PacketSynthesizer) {
	t.Helper()
	fastFixture.once.Do(func() {
		public := datasets.CAIDAChicago(1200, 2)
		fastFixture.flow, fastFixture.err = TrainFlowSynthesizer(
			datasets.UGR16(300, 1), public, fastTestConfig())
		if fastFixture.err != nil {
			return
		}
		fastFixture.pkt, fastFixture.err = TrainPacketSynthesizer(
			datasets.CAIDAChicago(900, 1), public, fastTestConfig())
	})
	if fastFixture.err != nil {
		t.Fatal(fastFixture.err)
	}
	return fastFixture.flow, fastFixture.pkt
}

func TestFastFlowGenerateValidAndExact(t *testing.T) {
	syn, _ := trainedSynthesizers(t)
	gen := syn.Fast().Generate(250)
	if len(gen.Records) != 250 {
		t.Fatalf("generated %d records, want 250", len(gen.Records))
	}
	for i, r := range gen.Records {
		if r.Packets < 1 || r.Bytes < 1 {
			t.Fatalf("record %d has non-positive counts: %+v", i, r)
		}
		if r.Duration < 0 {
			t.Fatalf("record %d has negative duration", i)
		}
		if i > 0 && r.Start < gen.Records[i-1].Start {
			t.Fatal("generated records must be start sorted")
		}
	}
}

// TestFastFlowReproducibleAcrossParallelism: fresh snapshots of the same
// trained synthesizer emit identical traces at every worker count.
func TestFastFlowReproducibleAcrossParallelism(t *testing.T) {
	syn, _ := trainedSynthesizers(t)
	ref := syn.Fast()
	ref.SetParallelism(1)
	want := ref.GenerateBatch([]int{90, 60})
	for _, p := range []int{2, 0} {
		f := syn.Fast()
		f.SetParallelism(p)
		got := f.GenerateBatch([]int{90, 60})
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("Parallelism=%d batch output diverges", p)
		}
	}
}

// TestFastFlowGenerateBatchDealsProportionally: every request receives
// exactly its count, drawn from every non-empty chunk.
func TestFastFlowGenerateBatchDealsProportionally(t *testing.T) {
	syn, _ := trainedSynthesizers(t)
	f := syn.Fast()
	counts := []int{130, 70, 1}
	outs := f.GenerateBatch(counts)
	if len(outs) != len(counts) {
		t.Fatalf("got %d traces, want %d", len(outs), len(counts))
	}
	for ri, out := range outs {
		if len(out.Records) != counts[ri] {
			t.Fatalf("request %d got %d records, want %d", ri, len(out.Records), counts[ri])
		}
	}
}

func TestFastFlowSaveLoadRoundTrip(t *testing.T) {
	syn, _ := trainedSynthesizers(t)
	fresh := syn.Fast()
	var buf bytes.Buffer
	if err := fresh.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFlowSynthesizer(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want := fresh.Generate(180)
	got := loaded.Generate(180)
	if !reflect.DeepEqual(want, got) {
		t.Fatal("loaded snapshot must generate the identical trace")
	}
}

func TestFastPacketGenerateValidAndExact(t *testing.T) {
	_, syn := trainedSynthesizers(t)
	gen := syn.Fast().Generate(220)
	if len(gen.Packets) != 220 {
		t.Fatalf("generated %d packets, want 220", len(gen.Packets))
	}
	for i, p := range gen.Packets {
		if p.Size < trace.MinPacketSize(p.Tuple.Proto) || p.Size > trace.MaxPacket {
			t.Fatalf("packet %d size %d outside valid range", i, p.Size)
		}
		if i > 0 && p.Time < gen.Packets[i-1].Time {
			t.Fatal("assembled packets must be time sorted")
		}
	}
}

func TestFastPacketGenerateBatchExactCounts(t *testing.T) {
	_, syn := trainedSynthesizers(t)
	outs := syn.Fast().GenerateBatch([]int{150, 40, 17})
	for ri, want := range []int{150, 40, 17} {
		if len(outs[ri].Packets) != want {
			t.Fatalf("request %d got %d packets, want %d", ri, len(outs[ri].Packets), want)
		}
	}
}

func TestFastPacketSaveLoadRoundTrip(t *testing.T) {
	_, syn := trainedSynthesizers(t)
	fresh := syn.Fast()
	var buf bytes.Buffer
	if err := fresh.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPacketSynthesizer(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh.Generate(160), loaded.Generate(160)) {
		t.Fatal("loaded snapshot must generate the identical trace")
	}
}

// TestFastLoadRejectsWrongKind: fast frames are typed; feeding a flow-fast
// container to the packet loader fails with ErrWrongKind.
func TestFastLoadRejectsWrongKind(t *testing.T) {
	syn, _ := trainedSynthesizers(t)
	var fastBuf bytes.Buffer
	if err := syn.Fast().Save(&fastBuf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPacketSynthesizer(bytes.NewReader(fastBuf.Bytes())); !errors.Is(err, container.ErrWrongKind) {
		t.Fatalf("packet loader on flow-fast frame: %v", err)
	}
}

// fastFlowWire and fastPacketWire are the wire structs float32 containers
// were written with while the float32 synthesizers were types of their
// own. Gob writes the type name into the stream, so those containers
// differ in bytes from the ones Save writes now; they must still load.
type fastFlowWire struct {
	Config Config
	Stats  Stats
	Embed  embedWire
	Time   rangeWire
	Dur    rangeWire
	Pkt    rangeWire
	Byt    rangeWire
	Models [][]byte
}

type fastPacketWire struct {
	Config Config
	Stats  Stats
	Embed  embedWire
	Time   rangeWire
	Size   rangeWire
	Models [][]byte
}

// TestLoadLegacyFastContainers frames a float32 snapshot in the old wire
// structs under the fast container kinds and checks that the loaders
// decode it into a synthesizer that generates the snapshot's bytes.
func TestLoadLegacyFastContainers(t *testing.T) {
	flow, pkt := trainedSynthesizers(t)
	counts := []int{250, 97}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	flowCSV := func(outs []*trace.FlowTrace) []byte {
		var buf bytes.Buffer
		for _, out := range outs {
			must(trace.WriteFlowCSV(&buf, out))
		}
		return buf.Bytes()
	}
	packetCSV := func(outs []*trace.PacketTrace) []byte {
		var buf bytes.Buffer
		for _, out := range outs {
			must(trace.WritePacketCSV(&buf, out))
		}
		return buf.Bytes()
	}

	fastFlow := flow.Fast()
	fw := fastFlowWire{Config: fastFlow.cfg, Stats: fastFlow.stats}
	var err error
	fw.Embed, err = captureEmbed(fastFlow.codec.embed)
	must(err)
	for _, r := range []struct {
		dst *rangeWire
		src interface {
			Range() (float64, float64, bool)
		}
	}{{&fw.Time, &fastFlow.codec.timeNorm}, {&fw.Dur, fastFlow.codec.durNorm}, {&fw.Pkt, fastFlow.codec.pktNorm}, {&fw.Byt, fastFlow.codec.bytNorm}} {
		*r.dst, err = captureRange(r.src)
		must(err)
	}
	fw.Models, err = fastFlow.encodeModels()
	must(err)
	var buf bytes.Buffer
	must(saveContainer(&buf, container.KindFlowFast, fw))
	loadedFlow, err := LoadFlowSynthesizer(&buf)
	must(err)
	if !bytes.Equal(flowCSV(fastFlow.GenerateBatch(counts)), flowCSV(loadedFlow.GenerateBatch(counts))) {
		t.Fatal("legacy flow-fast container generates other bytes than its snapshot")
	}

	fastPkt := pkt.Fast()
	pw := fastPacketWire{Config: fastPkt.cfg, Stats: fastPkt.stats}
	pw.Embed, err = captureEmbed(fastPkt.codec.embed)
	must(err)
	pw.Time, err = captureRange(&fastPkt.codec.timeNorm)
	must(err)
	pw.Size, err = captureRange(fastPkt.codec.sizeNorm)
	must(err)
	pw.Models, err = fastPkt.encodeModels()
	must(err)
	buf.Reset()
	must(saveContainer(&buf, container.KindPacketFast, pw))
	loadedPkt, err := LoadPacketSynthesizer(&buf)
	must(err)
	if !bytes.Equal(packetCSV(fastPkt.GenerateBatch(counts)), packetCSV(loadedPkt.GenerateBatch(counts))) {
		t.Fatal("legacy packet-fast container generates other bytes than its snapshot")
	}
}
