//go:build go1.24

// runtime.AddCleanup, which go1.24 brings, sees an object freed even when
// it points into itself, as an answer's result does; SetFinalizer never
// frees such an object.

package qbism

import (
	"bytes"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// TestBatchSlabRetention: a batch's answers and pixels are one slab
// each, and neither outlives what holds it. The images sit side by side
// in the pixel slab, yet an append to one moves it and leaves the next
// intact. Once the caller drops the results, the DX cache still holds the
// batch's fields and so its slabs; eight other queries evict them, and a
// collection then frees both slabs.
func TestBatchSlabRetention(t *testing.T) {
	sys := serveAllocSystem(t)
	study := sys.Studies[0].StudyID
	box := func(k uint32) QuerySpec {
		return QuerySpec{StudyID: study, Atlas: "Talairach", Box: &[6]uint32{0, 0, 0, k, k, k}}
	}
	batch := []QuerySpec{box(20), box(21), box(22), box(23)}
	items := sys.RunQueries(batch, 2)
	for _, item := range items {
		if item.Err != nil {
			t.Fatal(item.Err)
		}
	}
	first, second := items[0].Res, items[1].Res
	if step := uintptr(unsafe.Pointer(second)) - uintptr(unsafe.Pointer(first)); step != unsafe.Sizeof(answer{}) {
		t.Fatalf("the batch's first two answers are %d bytes apart, want one answer's %d: not one slab", step, unsafe.Sizeof(answer{}))
	}
	pix := first.Image.Pix
	if end := unsafe.Add(unsafe.Pointer(unsafe.SliceData(pix)), len(pix)); end != unsafe.Pointer(unsafe.SliceData(second.Image.Pix)) {
		t.Fatal("the batch's first two images are not side by side in one pixel slab")
	}
	next := slices.Clone(second.Image.Pix)
	grown := append(pix, bytes.Repeat([]byte{0xFF}, 64)...)
	if &grown[0] == &pix[0] || !bytes.Equal(second.Image.Pix, next) {
		t.Fatal("an append to one image's pixels reached the next image's")
	}

	var answersFreed, pixelsFreed atomic.Bool
	runtime.AddCleanup(first, func(freed *atomic.Bool) { freed.Store(true) }, &answersFreed)
	runtime.AddCleanup(&pix[0], func(freed *atomic.Bool) { freed.Store(true) }, &pixelsFreed)
	items, first, second, pix = nil, nil, nil, nil
	freed := func() bool {
		for range 50 {
			runtime.GC()
			if answersFreed.Load() && pixelsFreed.Load() {
				return true
			}
			time.Sleep(10 * time.Millisecond)
		}
		return false
	}
	if freed() {
		t.Fatal("the batch's slabs were freed while the DX cache held its fields")
	}
	for k := range uint32(cacheCapacity) {
		if _, err := sys.RunQuery(box(k + 1)); err != nil {
			t.Fatal(err)
		}
	}
	if !freed() {
		t.Fatalf("the batch's slabs outlived its cache entries (answers freed %v, pixels freed %v)", answersFreed.Load(), pixelsFreed.Load())
	}
}
