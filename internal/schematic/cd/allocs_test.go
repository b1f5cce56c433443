//go:build !race

package cd_test

import (
	"bytes"
	"testing"

	"cadinterop/internal/diag"
	"cadinterop/internal/schematic/cd"
	"cadinterop/internal/workgen"
)

// maxAllocsPerKB gates cd.ReadBytes: half the ~1427 allocs/kB the reader
// spent while it built a generic value tree per record.
const maxAllocsPerKB = 713

func TestReadBytesAllocs(t *testing.T) {
	w := workgen.Schematic(workgen.SchematicOptions{Instances: 120, Pages: 3, Seed: 1})
	var buf bytes.Buffer
	if err := cd.Write(&buf, w.Design); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	var err error
	allocs := testing.AllocsPerRun(5, func() {
		_, _, err = cd.ReadBytes(data, cd.ReadOptions{Mode: diag.Strict})
	})
	if err != nil {
		t.Fatal(err)
	}
	perKB := allocs / (float64(len(data)) / 1024)
	t.Logf("%.0f allocs/kB over %d bytes", perKB, len(data))
	if perKB > maxAllocsPerKB {
		t.Fatalf("%.0f allocs/kB, gate is %d", perKB, maxAllocsPerKB)
	}
}
