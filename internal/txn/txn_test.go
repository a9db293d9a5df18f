package txn

import (
	"strings"
	"testing"
)

func TestKindString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Fatal("kind names wrong")
	}
}

func TestClassNames(t *testing.T) {
	want := []string{"cpu", "gpu", "dsp", "media", "system"}
	for i, w := range want {
		if Class(i).String() != w {
			t.Fatalf("class %d = %q, want %q", i, Class(i), w)
		}
	}
	if !strings.Contains(Class(9).String(), "9") {
		t.Fatal("unknown class string should include the value")
	}
}

func TestLatencyAndWait(t *testing.T) {
	tr := &Transaction{ID: 1, Issue: 100, Enqueue: 150, Complete: 400}
	if tr.Latency() != 300 {
		t.Fatalf("latency %d, want 300", tr.Latency())
	}
	if !strings.Contains(tr.String(), "txn 1") {
		t.Fatalf("String() = %q", tr.String())
	}
}
