package dx

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"qbism/internal/atlas"
	"qbism/internal/region"
	"qbism/internal/sfc"
	"qbism/internal/volume"
)

var h3 = sfc.MustNew(sfc.Hilbert, 3, 4)

func sphereData(t *testing.T, val uint8) *volume.DataRegion {
	t.Helper()
	v := volume.FromFunc(h3, func(p sfc.Point) uint8 { return val })
	r, err := region.FromSphere(h3, 8, 8, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	d, err := volume.Extract(v, r)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestImportVolume(t *testing.T) {
	d := sphereData(t, 100)
	f, st, err := ImportVolume(d)
	if err != nil {
		t.Fatal(err)
	}
	if f.Side != 16 {
		t.Errorf("side = %d", f.Side)
	}
	if st.Voxels != d.Region.NumVoxels() || st.Runs != uint64(d.Region.NumRuns()) || st.Bytes != uint64(len(d.Values)) {
		t.Errorf("stats = %+v", st)
	}
}

func TestImportVolumeErrors(t *testing.T) {
	if _, _, err := ImportVolume(nil); err == nil {
		t.Error("nil accepted")
	}
	d2 := &volume.DataRegion{Region: region.Full(sfc.MustNew(sfc.Hilbert, 2, 2))}
	if _, _, err := ImportVolume(d2); err == nil {
		t.Error("2D accepted")
	}
	d := sphereData(t, 1)
	d.Values = d.Values[:len(d.Values)-1]
	if _, _, err := ImportVolume(d); err == nil {
		t.Error("mismatched values accepted")
	}
}

func TestRenderMIP(t *testing.T) {
	d := sphereData(t, 200)
	f, _, _ := ImportVolume(d)
	for axis := 0; axis < 3; axis++ {
		img, err := f.Render(RenderOpts{Axis: axis, Mode: MIP})
		if err != nil {
			t.Fatal(err)
		}
		// Center pixel covered by the sphere must be 200; corner 0.
		if got := img.Pix[8*img.W+8]; got != 200 {
			t.Errorf("axis %d center = %d", axis, got)
		}
		if got := img.Pix[0]; got != 0 {
			t.Errorf("axis %d corner = %d", axis, got)
		}
	}
	if _, err := f.Render(RenderOpts{Axis: 5}); err == nil {
		t.Error("bad axis accepted")
	}
}

func TestRenderAverage(t *testing.T) {
	d := sphereData(t, 80)
	f, _, _ := ImportVolume(d)
	img, err := f.Render(RenderOpts{Axis: 2, Mode: Average})
	if err != nil {
		t.Fatal(err)
	}
	if got := img.Pix[8*img.W+8]; got != 80 {
		t.Errorf("average of constant field = %d, want 80", got)
	}
}

func TestWritePGM(t *testing.T) {
	img := NewImage(4, 2)
	img.Pix[0] = 255
	var buf bytes.Buffer
	if err := img.WritePGM(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.HasPrefix(s, "P5\n4 2\n255\n") {
		t.Errorf("header = %q", s[:12])
	}
	if buf.Len() != 11+8 {
		t.Errorf("length = %d", buf.Len())
	}
}

func TestCacheBasics(t *testing.T) {
	c := NewCache(2)
	f1 := &Field{Side: 1}
	f2 := &Field{Side: 2}
	f3 := &Field{Side: 3}
	if _, ok := c.Get("a"); ok {
		t.Error("hit on empty cache")
	}
	c.Put("a", f1)
	c.Put("b", f2)
	if got, ok := c.Get("a"); !ok || got != f1 {
		t.Error("miss on a")
	}
	// "b" is now least recently used; inserting "c" evicts it.
	c.Put("c", f3)
	if _, ok := c.Get("b"); ok {
		t.Error("b not evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a wrongly evicted")
	}
	if len(c.entries) != 2 {
		t.Errorf("len = %d", len(c.entries))
	}
	// Re-Put same key updates in place.
	c.Put("x", f1)
	c.Put("x", f2)
	if got, _ := c.Get("x"); got != f2 {
		t.Error("re-put did not replace")
	}
	// Default size.
	if NewCache(0) == nil {
		t.Error("default cache nil")
	}
}

// TestCacheReusesMemory: RunQuery Puts after every run and a DX
// session re-reads its recent queries, so neither a hit nor a Put into a
// full cache may allocate — and an evicted key leaves no slot of the LRU
// list holding it.
func TestCacheReusesMemory(t *testing.T) {
	c := NewCache(3)
	f := &Field{Side: 1}
	keys := []string{"a", "b", "c", "d", "e"}
	for _, k := range keys[:3] {
		c.Put(k, f)
	}
	if got := testing.AllocsPerRun(100, func() {
		for _, k := range keys[:3] {
			if _, ok := c.Get(k); !ok {
				t.Fatalf("miss on %q", k)
			}
		}
	}); got != 0 {
		t.Errorf("%.1f allocs per three hits, want 0 — does touch rebuild the LRU list?", got)
	}
	i := 0
	if got := testing.AllocsPerRun(100, func() {
		c.Put(keys[i%len(keys)], f) // every key is new: each Put evicts
		i++
	}); got != 0 {
		t.Errorf("%.1f allocs per Put into a full cache, want 0", got)
	}
	if len(c.entries) != 3 || len(c.order) != 3 {
		t.Errorf("cache holds %d entries, %d LRU keys; want 3 and 3", len(c.entries), len(c.order))
	}
	for n, k := range c.order[len(c.order):cap(c.order)] {
		if k != "" {
			t.Errorf("LRU list slot %d past the end still holds key %q", len(c.order)+n, k)
		}
	}
}

func TestRenderMeshSphere(t *testing.T) {
	r, err := region.FromSphere(h3, 8, 8, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	m := atlas.MeshFromRegion(r)
	img, err := RenderMesh(m, 2, 64, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The projected sphere must light up the image center and leave the
	// corners black.
	if img.Pix[32*img.W+32] == 0 {
		t.Error("center pixel black")
	}
	if img.Pix[0] != 0 || img.Pix[63*img.W+63] != 0 {
		t.Error("corner pixels lit")
	}
	lit := 0
	for _, p := range img.Pix {
		if p > 0 {
			lit++
		}
	}
	// A radius-5 sphere scaled 4x covers roughly pi*20^2 ≈ 1257 pixels.
	if lit < 800 || lit > 2200 {
		t.Errorf("lit pixels = %d, want ≈1257", lit)
	}
}

func TestRenderMeshTextured(t *testing.T) {
	r, err := region.FromSphere(h3, 8, 8, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	m := atlas.MeshFromRegion(r)
	// Hot study everywhere: textured render is brighter than one
	// textured with a cold study.
	hot := volume.FromFunc(h3, func(p sfc.Point) uint8 { return 255 })
	cold := volume.FromFunc(h3, func(p sfc.Point) uint8 { return 0 })
	dHot, _ := volume.Extract(hot, r)
	dCold, _ := volume.Extract(cold, r)
	imgHot, err := RenderMesh(m, 2, 64, 4, dHot)
	if err != nil {
		t.Fatal(err)
	}
	imgCold, err := RenderMesh(m, 2, 64, 4, dCold)
	if err != nil {
		t.Fatal(err)
	}
	var sumHot, sumCold int
	for i := range imgHot.Pix {
		sumHot += int(imgHot.Pix[i])
		sumCold += int(imgCold.Pix[i])
	}
	if sumHot <= sumCold {
		t.Errorf("textured hot render (%d) not brighter than cold (%d)", sumHot, sumCold)
	}
}

func TestRenderMeshErrors(t *testing.T) {
	m := &atlas.Mesh{}
	if _, err := RenderMesh(m, 7, 64, 1, nil); err == nil {
		t.Error("bad axis accepted")
	}
	if _, err := RenderMesh(m, 0, 0, 1, nil); err == nil {
		t.Error("zero size accepted")
	}
	// Degenerate triangle does not crash.
	m = &atlas.Mesh{
		Vertices:  []atlas.Vec3{{X: 1, Y: 1, Z: 1}, {X: 1, Y: 1, Z: 1}, {X: 1, Y: 1, Z: 1}},
		Triangles: [][3]uint32{{0, 1, 2}},
	}
	if _, err := RenderMesh(m, 2, 8, 1, nil); err != nil {
		t.Errorf("degenerate triangle: %v", err)
	}
}

func BenchmarkRenderMIP(b *testing.B) {
	c := sfc.MustNew(sfc.Hilbert, 3, 6)
	v := volume.FromFunc(c, func(p sfc.Point) uint8 { return uint8(p.X * 4) })
	r, err := region.FromSphere(c, 32, 32, 32, 20)
	if err != nil {
		b.Fatal(err)
	}
	d, err := volume.Extract(v, r)
	if err != nil {
		b.Fatal(err)
	}
	f, _, err := ImportVolume(d)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Render(RenderOpts{Axis: 2, Mode: MIP}); err != nil {
			b.Fatal(err)
		}
	}
}

func ExampleImage_WritePGM() {
	img := NewImage(2, 1)
	img.Pix[0] = 7
	var buf bytes.Buffer
	img.WritePGM(&buf)
	fmt.Println(len(buf.Bytes()))
	// Output: 13
}
