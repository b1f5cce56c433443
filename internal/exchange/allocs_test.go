//go:build !race

package exchange_test

import (
	"bytes"
	"testing"

	"cadinterop/internal/diag"
	"cadinterop/internal/exchange"
	"cadinterop/internal/workgen"
)

// allocNets sizes the allocation gate's input; maxAllocsPerNet is the gate.
// Parsing builds no per-atom value tree (DESIGN.md §5c), so what remains
// per net is the netlist itself: the net, the instance driving it, their
// maps and the connection entries.
const (
	allocNets       = 1000
	maxAllocsPerNet = 20
)

func scaleInput(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := workgen.ScaleExchange(&buf, workgen.ScaleOptions{Nets: allocNets, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func checkAllocsPerNet(t *testing.T, read func() error) {
	t.Helper()
	var err error
	allocs := testing.AllocsPerRun(5, func() { err = read() })
	if err != nil {
		t.Fatal(err)
	}
	perNet := allocs / allocNets
	t.Logf("%.1f allocs/net", perNet)
	if perNet > maxAllocsPerNet {
		t.Fatalf("%.1f allocs/net, gate is %d", perNet, maxAllocsPerNet)
	}
}

func TestReadBytesAllocs(t *testing.T) {
	data := scaleInput(t)
	checkAllocsPerNet(t, func() error {
		_, _, err := exchange.ReadBytes(data, exchange.ReadOptions{Mode: diag.Strict})
		return err
	})
}

func TestReadStreamAllocs(t *testing.T) {
	data := scaleInput(t)
	checkAllocsPerNet(t, func() error {
		_, _, err := exchange.ReadStream(bytes.NewReader(data), exchange.ReadOptions{Mode: diag.Strict})
		return err
	})
}
