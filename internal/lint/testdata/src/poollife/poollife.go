// Package poollife exercises the pooled-object lifecycle analyzer:
// use-after-release, double release, inferred releasers, kills, and the
// //camlint:allow escape hatch.
package poollife

// Req is a pooled request recycled through a free list.
//
//camlint:pool
type Req struct {
	ID int
}

var free []*Req

// put returns r to the free list.
//
//camlint:pool release
func put(r *Req) {
	free = append(free, r)
}

// putAll forwards unconditionally to put, so release is inferred.
func putAll(r *Req) {
	put(r)
}

// maybePut releases only on one branch; conditional releases must not
// propagate to callers.
func maybePut(r *Req, recycle bool) {
	if recycle {
		put(r)
	}
}

func get() *Req {
	if len(free) > 0 {
		r := free[len(free)-1]
		free = free[:len(free)-1]
		return r
	}
	return &Req{}
}

func useAfterRelease(r *Req) {
	put(r)
	_ = r.ID // want "use of r after release"
}

func doubleRelease(r *Req) {
	put(r)
	put(r) // want "released twice"
}

func throughWrapper(r *Req) {
	putAll(r)
	_ = r.ID // want "use of r after release"
}

func afterMaybe(r *Req) {
	maybePut(r, true)
	_ = r.ID // no finding: maybePut releases only conditionally
}

func branchy(r *Req, done bool) {
	if done {
		put(r)
	}
	_ = r.ID // want "use of r after release"
}

func reuse(r *Req) {
	put(r)
	r = get()
	_ = r.ID // no finding: r was reacquired from the pool
}

func deferPut(r *Req) {
	defer put(r)
	_ = r.ID // no finding: the deferred release runs at exit
}

func deferDouble(r *Req) {
	defer put(r) // want "released twice"
	put(r)
}

func suppressed(r *Req) {
	put(r)
	_ = r.ID //camlint:allow poollife -- fixture: reading a recycled request is the point here
}

// FreeList is the shape of sim.FreeList: the generic list every pool in the
// simulator recycles through. Its Put carries no annotation; the owner's
// wrapper does.
type FreeList[T any] struct{ free []*T }

func (f *FreeList[T]) Get() *T {
	if last := len(f.free) - 1; last >= 0 {
		r := f.free[last]
		f.free[last] = nil
		f.free = f.free[:last]
		return r
	}
	return new(T)
}

func (f *FreeList[T]) Put(r *T) { f.free = append(f.free, r) }

type driver struct{ reqFree FreeList[Req] }

// putRequest releases through the generic list inside an annotated wrapper,
// as spdk.Driver.putRequest does.
//
//camlint:pool release
func (d *driver) putRequest(r *Req) {
	*r = Req{}
	d.reqFree.Put(r)
}

func (d *driver) useAfterGenericPut(r *Req) {
	d.putRequest(r)
	_ = r.ID // want "use of r after release"
}

func (d *driver) doubleGenericPut(r *Req) {
	d.putRequest(r)
	d.putRequest(r) // want "released twice"
}

func (d *driver) reuseGeneric(r *Req) {
	d.putRequest(r)
	r = d.reqFree.Get()
	_ = r.ID // no finding: r was reacquired from the list
}
