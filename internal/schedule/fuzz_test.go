package schedule

import (
	"slices"
	"testing"
)

// FuzzBuilders checks that every schedule builder either rejects its inputs
// or produces a structurally valid schedule, for arbitrary (p, n).
func FuzzBuilders(f *testing.F) {
	f.Add(uint8(4), uint8(16))
	f.Add(uint8(1), uint8(1))
	f.Add(uint8(8), uint8(64))
	f.Fuzz(func(t *testing.T, pp, nn uint8) {
		p := int(pp%12) + 1
		n := int(nn%48) + 1
		for _, mk := range builders {
			s, err := mk.build(p, n)
			if err != nil {
				continue // constraint rejection is fine
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("%s(%d,%d): %v", mk.name, p, n, err)
			}
			if s.Devices() != p {
				t.Fatalf("%s(%d,%d): %d devices", mk.name, p, n, s.Devices())
			}
		}
	})
}

// FuzzValidateMatchesReference is the differential oracle of the dense
// Validate: a built schedule, with one op duplicated, dropped or retargeted
// to another in-range (kind, micro, stage, pipeline), with every op of one
// micro-batch dropped, or with the forward and backward of one cell moved
// together to another in-range (stage, pipeline), must get the same verdict
// and byte-equal error text from Validate and validateReference.
func FuzzValidateMatchesReference(f *testing.F) {
	f.Add(uint8(0), uint8(4), uint8(8), uint8(0), uint8(1), uint16(3), uint16(0))
	f.Add(uint8(2), uint8(4), uint8(8), uint8(1), uint8(2), uint16(5), uint16(0))
	f.Add(uint8(3), uint8(2), uint8(8), uint8(2), uint8(0), uint16(1), uint16(7))
	f.Add(uint8(4), uint8(2), uint8(4), uint8(3), uint8(1), uint16(2), uint16(3))
	f.Add(uint8(1), uint8(3), uint8(5), uint8(4), uint8(2), uint16(9), uint16(1))
	f.Add(uint8(2), uint8(2), uint8(4), uint8(5), uint8(0), uint16(0), uint16(1))
	f.Add(uint8(0), uint8(2), uint8(3), uint8(6), uint8(0), uint16(0), uint16(2))
	f.Add(uint8(2), uint8(2), uint8(2), uint8(7), uint8(0), uint16(0), uint16(0x101))
	f.Fuzz(func(t *testing.T, which, pp, nn, mut, dev uint8, at, val uint16) {
		mk := builders[int(which)%len(builders)]
		s, err := mk.build(int(pp%8)+1, int(nn%24)+1)
		if err != nil {
			return
		}
		d := int(dev) % s.Devices()
		ops := s.Ops[d]
		if len(ops) == 0 {
			return
		}
		i := int(at) % len(ops)
		op := ops[i]
		pipes := 1
		if s.Bidirectional {
			pipes = 2
		}
		switch mut % 8 {
		case 0: // duplicate
			s.Ops[d] = append(ops[:i+1:i+1], ops[i:]...)
		case 1: // drop
			s.Ops[d] = append(ops[:i], ops[i+1:]...)
		case 2: // another micro (a fresh slice: the ids are shared)
			op.Micros = append([]int(nil), op.Micros...)
			op.Micros[int(val)%len(op.Micros)] = int(val>>4) % s.Micros
		case 3:
			op.Stage = int(val) % s.Stages
		case 4:
			op.Kind = Kind(val % 2)
		case 5:
			op.Pipeline = int(val) % pipes
		case 6: // lose a micro-batch
			m := int(val) % s.Micros
			for e := range s.Ops {
				s.Ops[e] = slices.DeleteFunc(s.Ops[e], func(o Op) bool { return slices.Contains(o.Micros, m) })
			}
		case 7: // move a whole cell
			for j, o := range ops {
				if o.Stage == op.Stage && o.Pipeline == op.Pipeline && slices.Equal(o.Micros, op.Micros) {
					ops[j].Stage, ops[j].Pipeline = int(val)%s.Stages, int(val>>8)%pipes
				}
			}
		}
		if m := mut % 8; m >= 2 && m < 6 {
			ops[i] = op
		}
		got, want := s.Validate(), validateReference(s)
		if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
			t.Fatalf("%s mutated (%d on device %d op %d): Validate = %v, reference = %v", mk.name, mut%8, d, i, got, want)
		}
	})
}
