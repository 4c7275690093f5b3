package harness

import "testing"

// TestKVServeEarlyWaiterSeeds serves the default camkv shape on CAM with the
// two seeds on which a session looks up a block whose covering transfer is
// published but not yet issued: CAM's publish yields inside Start*List, so
// the waiter used to dereference a nil handle and crash the run. KVRun
// panics on any verification failure.
func TestKVServeEarlyWaiterSeeds(t *testing.T) {
	def := kvDefaults(KVParams{}, false)
	want := uint64(def.Sessions * def.Decode)
	for _, seed := range []uint64{2, 3} {
		srv, _ := KVRun(RunConfig{}, KVParams{Seed: seed}, "CAM")
		if st := srv.Stats(); st.DecodedTokens != want || st.Fills == 0 || st.Spills == 0 {
			t.Errorf("seed %d: served %+v, want %d tokens through a churning tier", seed, st, want)
		}
	}
}
