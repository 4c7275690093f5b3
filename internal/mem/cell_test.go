package mem

import (
	"bytes"
	"testing"
)

const testPage = 4096

// storePage writes b over a whole page through a wrapped (eager) source.
func storePage(c *Cell, b []byte) {
	src := WrapBytes(b)
	StoreCells([]*Cell{c}, testPage, 0, src, 0, int64(len(b)))
	src.Release()
}

// pageContent renders a page: its window, zeros around it.
func pageContent(c *Cell) []byte {
	dst := make([]byte, testPage)
	pay := WrapBytes(dst)
	LoadCells(pay, 0, []*Cell{c}, testPage, 0, testPage)
	pay.Release()
	return dst
}

// TestPageOverwriteAfterSharedRead: a page read into a lazy payload shares
// its chunk with it, so the next write must not land in that chunk — the
// payload keeps what it read, the page reads what was written, and once
// both let go no chunk is left referenced.
func TestPageOverwriteAfterSharedRead(t *testing.T) {
	a, b := pattern(1, testPage), pattern(2, testPage)
	var c Cell
	storePage(&c, a)
	lazy := NewPayload(testPage, false)
	LoadCells(lazy, 0, []*Cell{&c}, testPage, 0, testPage)
	old := c.ch
	if old.refs != 2 {
		t.Fatalf("page chunk has %d references after a lazy read, want 2 (page + payload)", old.refs)
	}
	storePage(&c, b)
	if c.ch == old {
		t.Fatal("the write landed in the chunk the lazy payload shares")
	}
	got := make([]byte, testPage)
	lazy.ReadAt(got, 0)
	if !bytes.Equal(got, a) {
		t.Error("the lazy payload lost what it read when the page was overwritten")
	}
	if !bytes.Equal(pageContent(&c), b) {
		t.Error("the page does not read what was written last")
	}
	fresh := c.ch
	lazy.Release()
	zeros := NewPayload(testPage, false)
	StoreCells([]*Cell{&c}, testPage, 0, zeros, 0, testPage) // the page lets go
	zeros.Release()
	if !c.Empty() {
		t.Fatal("a page overwritten with zeros is not empty")
	}
	if old.refs != 0 || fresh.refs != 0 {
		t.Errorf("references left after payload and page let go: old chunk %d, new chunk %d", old.refs, fresh.refs)
	}
}

// TestPageOverwriteInPlace: a page whose chunk only it references is
// overwritten in that chunk — whole, in part, or zeroed in the middle —
// taking nothing from the chunk pool and allocating nothing.
func TestPageOverwriteInPlace(t *testing.T) {
	const cls = 12 // the page's pool class
	chunkPool.mu.Lock()
	saved := chunkPool.classes[cls]
	chunkPool.classes[cls] = nil
	chunkPool.mu.Unlock()
	defer func() {
		chunkPool.mu.Lock()
		chunkPool.classes[cls] = append(chunkPool.classes[cls], saved...)
		chunkPool.mu.Unlock()
	}()

	var c Cell
	want := pattern(3, testPage)
	storePage(&c, want)
	ch := c.ch
	if ch.refs != 1 {
		t.Fatalf("a freshly written page's chunk has %d references, want 1", ch.refs)
	}
	next := pattern(4, testPage)
	part := WrapBytes(pattern(5, 500))
	zeros := NewPayload(300, false)
	allocs := testing.AllocsPerRun(20, func() {
		storePage(&c, next)
		copy(want, next)
		StoreCells([]*Cell{&c}, testPage, 100, part, 0, 500)
		copy(want[100:], part.Bytes())
		StoreCells([]*Cell{&c}, testPage, 1000, zeros, 0, 300)
		clear(want[1000:1300])
	})
	if c.ch != ch {
		t.Fatal("an overwrite of a page's own chunk moved it to another chunk")
	}
	if allocs != 0 {
		t.Errorf("an in-place overwrite allocates %.1f times", allocs)
	}
	chunkPool.mu.Lock()
	pooled := len(chunkPool.classes[cls])
	chunkPool.mu.Unlock()
	if pooled != 0 {
		t.Errorf("%d page chunks went through the pool during in-place overwrites", pooled)
	}
	if !bytes.Equal(pageContent(&c), want) {
		t.Error("page content differs from what was written")
	}
	part.Release()
	zeros.Release()
}

// TestPageDoesNotPinSnapshot: pages written by one command share one
// snapshot chunk. Once the others have moved off it, the last page's
// overwrite must not land in that chunk — the page would pin the whole
// snapshot for its 4 KiB — so the snapshot goes back to the pool.
func TestPageDoesNotPinSnapshot(t *testing.T) {
	var pages [2]Cell
	both := []*Cell{&pages[0], &pages[1]}
	src := WrapBytes(pattern(6, 2*testPage))
	StoreCells(both, testPage, 0, src, 0, 2*testPage)
	src.Release()
	snap := pages[0].ch
	if pages[1].ch != snap || snap.refs != 2 {
		t.Fatalf("a two-page write left %d references on its snapshot, want both pages on one chunk", snap.refs)
	}
	storePage(&pages[0], pattern(7, testPage))
	last := pattern(8, testPage)
	storePage(&pages[1], last)
	if pages[1].ch == snap || snap.refs != 0 {
		t.Errorf("the last page kept the two-page snapshot (%d references left)", snap.refs)
	}
	if !bytes.Equal(pageContent(&pages[1]), last) {
		t.Error("the last page does not read what was written")
	}
}
