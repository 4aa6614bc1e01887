package main

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/trace"
)

// Seeded input generators. Every input the program receives is built
// here from the workload seed, so the same seed always yields the same
// bytes; the program's own dataset presets are never used.

// flowShape parameterizes one NetFlow-like trace family.
type flowShape struct {
	srcBase, dstBase trace.IPv4
	srcHosts         int
	dstHosts         int
	ports            []uint16
	portWeights      []float64
	tcpShare         float64
	spanUS           int64
	attackShare      float64
	attacks          []trace.Label
}

// tonShape is a TON_IoT-like labeled trace: an IoT device population and
// about a third of the flows spread evenly over nine attack classes.
var tonShape = flowShape{
	srcBase: trace.IPv4FromBytes(3, 122, 0, 0), dstBase: trace.IPv4FromBytes(192, 168, 1, 0),
	srcHosts: 128, dstHosts: 64,
	ports:       []uint16{53, 80, 445, 443, 21, 1883, 123, 22},
	portWeights: []float64{24, 22, 16, 14, 8, 8, 4, 4},
	tcpShare:    0.7, spanUS: 180_000_000, attackShare: 0.35,
	attacks: []trace.Label{trace.Backdoor, trace.DDoS, trace.DoS, trace.Injection,
		trace.MITM, trace.Password, trace.Ransomware, trace.Scanning, trace.XSS},
}

// ugrShape is a UGR16-like ISP trace: a wide host population, web and DNS
// dominated, with a small share of attacks.
var ugrShape = flowShape{
	srcBase: trace.IPv4FromBytes(42, 10, 0, 0), dstBase: trace.IPv4FromBytes(187, 20, 0, 0),
	srcHosts: 512, dstHosts: 384,
	ports:       []uint16{53, 80, 445, 443, 21, 22, 25, 123, 8080},
	portWeights: []float64{30, 25, 12, 18, 5, 3, 3, 2, 2},
	tcpShare:    0.72, spanUS: 60_000_000, attackShare: 0.05,
	attacks: []trace.Label{trace.DoS, trace.PortScan, trace.BruteForce},
}

// weighted draws an index with probability proportional to w.
func weighted(r *rand.Rand, w []float64) int {
	total := 0.0
	for _, x := range w {
		total += x
	}
	u := r.Float64() * total
	for i, x := range w {
		if u < x {
			return i
		}
		u -= x
	}
	return len(w) - 1
}

// zipfHost draws one of n hosts above base with Zipf-like popularity.
func zipfHost(r *rand.Rand, base trace.IPv4, n int) trace.IPv4 {
	// Inverse-CDF of a continuous 1/x law over [1, n+1): popular hosts
	// get the low offsets.
	k := int(math.Exp(r.Float64()*math.Log(float64(n)+1))) - 1
	if k >= n {
		k = n - 1
	}
	return base + trace.IPv4(1+k)
}

// protoFor keeps ports and protocols consistent: DNS and NTP ride UDP.
func protoFor(r *rand.Rand, port uint16, tcpShare float64) trace.Protocol {
	switch port {
	case 53, 123:
		return trace.UDP
	}
	if r.Float64() < tcpShare {
		return trace.TCP
	}
	return trace.UDP
}

// genFlows builds n flow records of the given shape, sorted by start.
func genFlows(seed int64, n int, sh flowShape) *trace.FlowTrace {
	r := rand.New(rand.NewSource(seed))
	out := &trace.FlowTrace{Records: make([]trace.FlowRecord, 0, n)}
	for len(out.Records) < n {
		port := sh.ports[weighted(r, sh.portWeights)]
		tuple := trace.FiveTuple{
			SrcIP:   zipfHost(r, sh.srcBase, sh.srcHosts),
			DstIP:   zipfHost(r, sh.dstBase, sh.dstHosts),
			SrcPort: uint16(32768 + r.Intn(32768)),
			DstPort: port,
			Proto:   protoFor(r, port, sh.tcpShare),
		}
		label := trace.Benign
		if r.Float64() < sh.attackShare {
			label = sh.attacks[r.Intn(len(sh.attacks))]
		}
		pkts := int64(math.Exp(1.2+1.6*r.NormFloat64())) + 1
		if pkts > 100_000 {
			pkts = 100_000
		}
		bpp := int64(40 + r.Intn(1400))
		start := r.Int63n(sh.spanUS)
		dur := int64(float64(pkts) * 1000 * (0.5 + r.Float64()))
		if start+dur > sh.spanUS {
			dur = sh.spanUS - start
		}
		out.Records = append(out.Records, trace.FlowRecord{
			Tuple: tuple, Start: start, Duration: dur,
			Packets: pkts, Bytes: pkts * bpp, Label: label,
		})
	}
	out.SortByStart()
	return out
}

// flowCSV renders t in the program's flow CSV schema.
func flowCSV(t *trace.FlowTrace) (string, error) {
	var b bytes.Buffer
	if err := trace.WriteFlowCSV(&b, t); err != nil {
		return "", fmt.Errorf("encode input csv: %w", err)
	}
	return b.String(), nil
}

// Address pools of the CAIDA-like packet traces.
var (
	capSrcBase = trace.IPv4FromBytes(12, 0, 0, 0)
	capDstBase = trace.IPv4FromBytes(96, 16, 0, 0)
)

const capHosts = 4096

// genPackets builds a CAIDA-like backbone packet trace of exactly n
// packets over spanUS microseconds: heavy-tailed flows of TCP/UDP packets
// with bimodal sizes, interleaved by capture time.
func genPackets(seed int64, n int, spanUS int64) *trace.PacketTrace {
	r := rand.New(rand.NewSource(seed))
	weights := []float64{30, 25, 12, 18, 5, 3, 3, 2, 2} // over capPorts
	ttls := []uint8{48, 54, 64, 115, 128, 244}
	pkts := make([]trace.Packet, 0, n)
	for len(pkts) < n {
		port := capPorts[weighted(r, weights)]
		tuple := trace.FiveTuple{
			SrcIP:   zipfHost(r, capSrcBase, capHosts),
			DstIP:   zipfHost(r, capDstBase, capHosts),
			SrcPort: uint16(32768 + r.Intn(32768)),
			DstPort: port,
			Proto:   protoFor(r, port, 0.82),
		}
		k := int(math.Exp(1.3+1.7*r.NormFloat64())) + 1
		t := r.Int63n(spanUS)
		gap := float64(spanUS) / (20 * float64(k))
		ttl := ttls[r.Intn(len(ttls))]
		for i := 0; i < k && len(pkts) < n; i++ {
			size := 40 + r.Intn(13)
			if u := r.Float64(); u > 0.7 {
				size = 1400 + r.Intn(101)
			} else if u > 0.45 {
				size = 40 + r.Intn(1000)
			}
			pkts = append(pkts, trace.Packet{Time: t, Tuple: tuple, Size: size, TTL: ttl, Flags: 2})
			t += int64(r.ExpFloat64()*gap) + 1
			if t >= spanUS {
				t = spanUS - 1
			}
		}
	}
	// Order by time; the remaining fields break ties so the unstable sort
	// is deterministic (packets equal in every field are interchangeable).
	slices.SortFunc(pkts, func(a, b trace.Packet) int {
		if a.Time != b.Time {
			return cmp.Compare(a.Time, b.Time)
		}
		return cmp.Or(cmp.Compare(a.Tuple.SrcIP, b.Tuple.SrcIP), cmp.Compare(a.Tuple.DstIP, b.Tuple.DstIP),
			cmp.Compare(a.Tuple.SrcPort, b.Tuple.SrcPort), cmp.Compare(a.Tuple.DstPort, b.Tuple.DstPort),
			cmp.Compare(a.Tuple.Proto, b.Tuple.Proto), cmp.Compare(a.Size, b.Size), cmp.Compare(a.TTL, b.TTL))
	})
	return &trace.PacketTrace{Packets: pkts}
}

// pcapBytes encodes t as a libpcap capture.
func pcapBytes(t *trace.PacketTrace) ([]byte, error) {
	var b bytes.Buffer
	b.Grow(len(t.Packets) * 64)
	if err := trace.WritePCAP(&b, t); err != nil {
		return nil, fmt.Errorf("encode capture: %w", err)
	}
	return b.Bytes(), nil
}
