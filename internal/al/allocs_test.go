//go:build !race

package al

import (
	"strings"
	"testing"
)

// TestIndexAllocs pins the flat index's allocation discipline: indexing
// into a reused Index and walking it with Node cursors — names,
// strings, numbers — allocates nothing, however many atoms the input has.
func TestIndexAllocs(t *testing.T) {
	src := strings.Repeat("(instance u3 (of BUF) (joined (A n1) (Y n2)) (property slack \"0\") (at 10 -20))\n", 200)
	var ix Index
	walk := func() int {
		seen := 0
		for f := ix.First(); f.Valid(); f = f.Next() {
			for k := f.Kid(0); k.Valid(); k = k.Next() {
				if _, ok := k.Sym(); ok {
					seen++
				}
				for a := k.Kid(0); a.Valid(); a = a.Next() {
					if _, ok := a.Str(); ok {
						seen++
					}
					if _, ok := a.Num(); ok {
						seen++
					}
				}
			}
		}
		return seen
	}
	if err := ix.Parse(src); err != nil {
		t.Fatal(err)
	}
	want := walk()
	var err error
	got := 0
	allocs := testing.AllocsPerRun(10, func() {
		err = ix.Parse(src)
		got = walk()
	})
	if err != nil || got != want {
		t.Fatalf("reparse: err %v, walk saw %d atoms, want %d", err, got, want)
	}
	if allocs != 0 {
		t.Fatalf("index + walk: %.0f allocs, want 0", allocs)
	}
}
