package online

import (
	"fmt"
	"reflect"

	"caft/internal/sched"
)

// verifyPristine checks the engine's rebuilt state equals a fresh
// rebuild of the original schedule: the copy restore after every
// reactive replay must leave no trace — records, timeline intervals and
// ready times all bit-identical. Test support for the fuzz harness's
// "clean restore" property.
func (e *Engine) verifyPristine() error {
	fresh, err := sched.StateOf(e.w.S)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(e.st.Reps, fresh.Reps) {
		return fmt.Errorf("online: replica records diverged from pristine state")
	}
	if !reflect.DeepEqual(e.st.Comms, fresh.Comms) {
		return fmt.Errorf("online: communication records diverged from pristine state")
	}
	if e.st.NumTimelines() != fresh.NumTimelines() {
		return fmt.Errorf("online: timeline count diverged")
	}
	for i := 0; i < e.st.NumTimelines(); i++ {
		a, b := e.st.Timeline(i), fresh.Timeline(i)
		if err := a.Validate(); err != nil {
			return fmt.Errorf("online: timeline %d inconsistent: %w", i, err)
		}
		if a.Ready() != b.Ready() {
			return fmt.Errorf("online: timeline %d ready time diverged", i)
		}
		ia, ib := a.Intervals(), b.Intervals()
		if len(ia) != len(ib) {
			return fmt.Errorf("online: timeline %d holds %d reservations, want %d", i, len(ia), len(ib))
		}
		for j := range ia {
			if ia[j] != ib[j] {
				return fmt.Errorf("online: timeline %d reservation %d diverged: %+v vs %+v", i, j, ia[j], ib[j])
			}
		}
	}
	return nil
}
