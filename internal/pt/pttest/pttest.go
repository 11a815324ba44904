// Package pttest holds test support for package pt. Only tests import it.
package pttest

import "github.com/mitosis-project/mitosis-sim/internal/pt"

// Lookup translates va through t, returning the leaf entry and page size;
// ok is false when no leaf maps va.
func Lookup(t *pt.Table, va pt.VirtAddr) (leaf pt.PTE, size pt.PageSize, ok bool) {
	d := t.Descend(va)
	if size, ok = d.Mapped(); !ok {
		return 0, pt.Size4K, false
	}
	return d.Entry, size, true
}
