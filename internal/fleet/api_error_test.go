package fleet

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"testing"
)

// TestResponseErrorInvertsWriteError holds the two halves of the status
// table together: whatever category writeError sends, responseError
// reads back — up to the three rows that share a status with a
// neighbour, which come back as the neighbour the doc comment names.
func TestResponseErrorInvertsWriteError(t *testing.T) {
	const owner = "http://daemon-b.example:8100"
	for _, tc := range []struct {
		sent error
		want error
	}{
		{errorf(ErrNotFound, "no instance"), ErrNotFound},
		{errorf(ErrConflict, "double fault"), ErrConflict},
		{fmt.Errorf("burst: %w", ErrBudget), ErrConflict},
		{errorf(ErrUnavailable, "journal failed"), ErrUnavailable},
		{wrongShardf(owner, "owned by shard b"), ErrWrongShard},
		{wrongShardf("", "owned by nobody known"), ErrReadOnly},
		{errorf(ErrReadOnly, "read-only replica"), ErrReadOnly},
		{errorf(ErrStaleTerm, "stale term"), ErrReadOnly},
		{errorf(ErrInvalid, "relayed invalid input"), ErrInvalid},
		{errors.New("node out of range"), ErrInvalid},
	} {
		rec := httptest.NewRecorder()
		writeError(rec, tc.sent)
		got := responseError(rec.Result())
		if !errors.Is(got, tc.want) {
			t.Errorf("%v sent as %d came back as %v, want %v", tc.sent, rec.Code, got, tc.want)
		}
		if got.Error() != tc.sent.Error() {
			t.Errorf("message %q came back as %q", tc.sent, got)
		}
		if WrongShardOwner(got) != WrongShardOwner(tc.sent) {
			t.Errorf("owner %q came back as %q", WrongShardOwner(tc.sent), WrongShardOwner(got))
		}
	}

	// A status the API never sends, with a body that is not its JSON.
	rec := httptest.NewRecorder()
	rec.WriteHeader(502)
	rec.WriteString("bad gateway")
	got := responseError(rec.Result())
	for _, cat := range []error{ErrNotFound, ErrConflict, ErrUnavailable, ErrWrongShard, ErrReadOnly, ErrInvalid} {
		if errors.Is(got, cat) {
			t.Errorf("a 502 came back as %v", cat)
		}
	}
	if got.Error() != "status 502: bad gateway" {
		t.Errorf("a 502 came back as %q", got)
	}
}
