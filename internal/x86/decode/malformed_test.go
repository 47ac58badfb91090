package decode

import (
	"errors"
	"strings"
	"testing"
)

// TestMalformed: every malformed input class returns a structured
// *Error carrying the byte offset of the offending instruction —
// never a panic, never a zero-length success.
func TestMalformed(t *testing.T) {
	cases := []struct {
		name string
		hex  string
		want string // substring of the error message
	}{
		{"empty buffer", "", "truncated"},
		{"bare REX", "48", "truncated"},
		{"truncated ModRM", "8b", "truncated"},
		{"truncated disp8", "8b45", "truncated"},
		{"truncated disp32", "8b8500", "truncated"},
		{"truncated SIB", "8b04", "truncated"},
		{"ModRM past buffer", "488b8424e803", "truncated"},
		{"truncated imm32", "05341200", "truncated"},
		{"truncated imm64 movabs", "48b8efcdab", "truncated"},
		{"dangling 66 at end", "66", "dangling prefix"},
		{"dangling F3 at end", "f3", "dangling prefix"},
		{"dangling rep on ret", "f3c3", "dangling 0xf3"},
		{"dangling repnz on mov", "f289d8", "dangling 0xf2"},
		{"dangling 66 on pushq", "6650", "dangling 66"},
		{"address-size prefix", "6789d8", "unsupported prefix 0x67"},
		{"cs segment override", "2e89d8", "unsupported prefix 0x2e"},
		{"gs segment override", "6589d8", "unsupported prefix 0x65"},
		{"15-byte prefix overflow", strings.Repeat("f0", 15) + "90", "exceeds 15 bytes"},
		{"undefined opcode", "0fff", "unsupported opcode"},
		{"invalid group digit", "8ff8", "not an instruction"},
		{"F6 digit 1 hole", "f6c801", "not an instruction"},
		{"SIB scale without index", "8b44e000", "scale with no index"},
		{"lea register source", "8dc0", "register source"},
		{"66 with F3 on SSE", "66f30f58c1", "conflicting"},
		{"lock on jcc rel8", "f07830", "lock prefix on a relative branch"},
		{"lock on call rel32", "f0e800000000", "lock prefix on a relative branch"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := mustHex(t, c.hex)
			r, err := One(b, 0)
			if err == nil {
				t.Fatalf("decoded %x as %s, want error containing %q", b, r.Inst, c.want)
			}
			var derr *Error
			if !errors.As(err, &derr) {
				t.Fatalf("error is %T, want *decode.Error", err)
			}
			if derr.Offset != 0 {
				t.Errorf("offset %d, want 0", derr.Offset)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not contain %q", err, c.want)
			}
		})
	}
}

// TestMalformedOffset: an error in the middle of a stream reports the
// offset of the instruction that failed, not zero.
func TestMalformedOffset(t *testing.T) {
	// 0: nop; 1: ret; 2: truncated mov
	_, err := All(mustHex(t, "90c38b"))
	var derr *Error
	if !errors.As(err, &derr) {
		t.Fatalf("error is %T (%v), want *decode.Error", err, err)
	}
	if derr.Offset != 2 {
		t.Errorf("offset %#x, want 0x2", derr.Offset)
	}
}

// TestDecodeNeverPanics drives One over a byte sweep of single-byte
// and prefix-wrapped opcodes so every dispatch arm sees short buffers.
func TestDecodeNeverPanics(t *testing.T) {
	prefixes := [][]byte{nil, {0x66}, {0xF2}, {0xF3}, {0x48}, {0x4F}, {0x66, 0x41}, {0x0F}}
	for _, p := range prefixes {
		for b0 := 0; b0 < 256; b0++ {
			for b1 := 0; b1 < 256; b1 += 17 {
				buf := append(append([]byte{}, p...), byte(b0), byte(b1))
				One(buf, 0) // outcome irrelevant; must not panic
			}
		}
	}
}
