package harness

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
)

// TestRunAllOrderAndLowestIndexError pins RunAll's two promises without
// relying on timing. Results come back in input order even when a later
// job finishes first, and a failed batch returns the error of its
// lowest-index failing job even when a higher-index job fails first.
func TestRunAllOrderAndLowestIndexError(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	in := []int{0, 1, 2, 3}

	// Job 0 finishes only after job 3 has.
	done3 := make(chan struct{})
	got, err := RunAll(in, func(i int) (string, error) {
		switch i {
		case 0:
			<-done3
		case 3:
			close(done3)
		}
		return fmt.Sprint("job", i), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[job0 job1 job2 job3]" {
		t.Fatalf("results %v, want input order", got)
	}

	// Job 1 fails only after job 3 has failed.
	failed3 := make(chan struct{})
	errJob1, errJob3 := errors.New("job 1"), errors.New("job 3")
	got, err = RunAll(in, func(i int) (string, error) {
		switch i {
		case 1:
			<-failed3
			return "", errJob1
		case 3:
			close(failed3)
			return "", errJob3
		}
		return "ok", nil
	})
	if !errors.Is(err, errJob1) || got != nil {
		t.Fatalf("RunAll = %v, %v; want nil, the lowest-index error %v", got, err, errJob1)
	}

	if got, err := RunAll(nil, func(int) (int, error) { return 0, errJob1 }); err != nil || len(got) != 0 {
		t.Fatalf("empty batch: %v, %v", got, err)
	}
}
