package pt

import (
	"testing"
)

// TestRebuildAfterResetIdentical pins the machine-recycling contract at
// the page-table layer: rebuilding the same table on a Reset PhysMem
// lands on the same frames and produces a structurally identical tree —
// same descents, same snapshot — as the first build. The pt layer itself is
// stateless over PhysMem, so this is the end-to-end check that nothing
// about table storage survives Reset.
func TestRebuildAfterResetIdentical(t *testing.T) {
	pm := newTestMem(t)
	tbl, va4k, va2m, data, huge := buildTable(t, pm)
	wantRoot := tbl.Root()
	wantSnap := Snapshot(tbl).Format()
	wantDescent4k := tbl.Descend(va4k)
	wantDescent2m := tbl.Descend(va2m)

	pm.Reset()
	tbl2, va4k2, va2m2, data2, huge2 := buildTable(t, pm)
	if va4k2 != va4k || va2m2 != va2m {
		t.Fatal("buildTable is not deterministic")
	}
	if tbl2.Root() != wantRoot {
		t.Fatalf("rebuilt root = %d, want %d", tbl2.Root(), wantRoot)
	}
	if data2 != data || huge2 != huge {
		t.Fatalf("rebuilt leaves (%d, %d) differ from first build (%d, %d)", data2, huge2, data, huge)
	}
	if got := Snapshot(tbl2).Format(); got != wantSnap {
		t.Errorf("rebuilt snapshot differs:\nfirst:\n%s\nrebuilt:\n%s", wantSnap, got)
	}
	if got := tbl2.Descend(va4k); got != wantDescent4k {
		t.Errorf("4K descent differs after rebuild:\nfirst:   %+v\nrebuilt: %+v", wantDescent4k, got)
	}
	if got := tbl2.Descend(va2m); got != wantDescent2m {
		t.Errorf("2M descent differs after rebuild:\nfirst:   %+v\nrebuilt: %+v", wantDescent2m, got)
	}
}
