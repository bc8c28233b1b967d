package svc

import "testing"

// TestAdmissionReusesRequiredSets: admitting a put or get builds the task
// and its body closure, nothing more. The required effect set comes from
// the session's memo, so no RPL or effect set is rebuilt per op.
func TestAdmissionReusesRequiredSets(t *testing.T) {
	srv := startTestServer(t, Config{Par: 1, Shards: 4, Keys: 64})
	defer drainClean(t, srv)
	sess := newSession(srv, 7, nil)
	for op, eff := range map[string]string{OpPut: PutEffect(4, 5, 7), OpGet: GetEffect(4, 5, 7)} {
		declared, err := srv.cache.Lookup(eff)
		if err != nil {
			t.Fatal(err)
		}
		req := &Request{ID: 1, Op: op, Key: 5, Val: 3, resolved: declared, hasResolved: true}
		admit := func() {
			sub, resp := sess.admitData(req)
			if resp != nil || sub.Task == nil {
				t.Fatalf("%s refused: %+v", op, resp)
			}
			srv.m.DecInflight()
		}
		admit()
		if a := testing.AllocsPerRun(200, admit); a > 2 {
			t.Errorf("%s admission: %.1f allocs, want at most 2 (task and body)", op, a)
		}
	}
}
