package core

import (
	"testing"

	"repro/internal/ip2vec"
)

// TestFallbackPortUnsortedVocabulary: fallbackPort documents "numerically
// lowest known port" — it must hold even when pe.ports is not sorted
// (a hand-built vocabulary, or a future Words() ordering change).
func TestFallbackPortUnsortedVocabulary(t *testing.T) {
	pe := &portEmbedding{ports: []ip2vec.Word{
		ip2vec.PortWord(443),
		ip2vec.PortWord(8080),
		ip2vec.PortWord(22),
		ip2vec.PortWord(80),
	}}
	if got := pe.fallbackPort(); got != 22 {
		t.Fatalf("fallbackPort over unsorted vocabulary = %d, want 22", got)
	}
}

// TestSortedPortsEnforced: the dictionary builders must hand portEmbedding
// an ascending vocabulary regardless of the model's internal order.
func TestSortedPortsEnforced(t *testing.T) {
	sentences := [][]ip2vec.Word{
		{ip2vec.IPWord(1), ip2vec.PortWord(8080)},
		{ip2vec.IPWord(2), ip2vec.PortWord(22)},
		{ip2vec.IPWord(3), ip2vec.PortWord(443)},
	}
	icfg := ip2vec.DefaultConfig()
	icfg.Dim = 4
	model, err := ip2vec.Train(sentences, icfg)
	if err != nil {
		t.Fatal(err)
	}
	ports := sortedPorts(model)
	if len(ports) == 0 {
		t.Fatal("no port vocabulary")
	}
	for i := 1; i < len(ports); i++ {
		if ports[i-1].Value > ports[i].Value {
			t.Fatalf("sortedPorts not ascending: %v", ports)
		}
	}
	pe := &portEmbedding{ports: ports}
	if got := pe.fallbackPort(); got != 22 {
		t.Fatalf("fallbackPort = %d, want 22", got)
	}
}
