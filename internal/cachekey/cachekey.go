// Package cachekey holds the optimize request — its type, its one-pass
// decoder (DecodeOptimizeRequest) and its content address, the key of
// maod's result cache.
//
// The three live in their own package because two independent
// components must agree on them byte-for-byte: the daemon
// (internal/serve) decodes a body and keys its LRU result cache with
// them, and the shard router (internal/router) decodes the same body
// and consistent-hashes the same key onto shards, so that repeat
// requests for the same content land on the shard that already holds
// the cached response. If the two ever decoded or keyed differently,
// routing would still be *correct* (every shard can serve every
// request) but cache hits would stop concentrating — a silent
// fleet-wide performance regression. One decoder, held to
// encoding/json by a differential fuzz target, and one key, pinned by
// golden-vector tests, make that drift impossible.
//
// The key is the SHA-256 over a length-delimited encoding of every
// request field the response bytes depend on: source, unit name, pass
// spec, and the check/explain/verify option flags. Fields that do NOT
// change the response (deadline, no_cache) are deliberately excluded.
package cachekey

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// Request is the response-relevant projection of an optimize request.
// The zero value of Name means "unnamed": it is canonicalized to
// DefaultName so that an absent name and an explicit "request.s" hash
// identically, exactly as the daemon treats them.
type Request struct {
	// Name is the unit name used in diagnostics ("" = DefaultName).
	Name string
	// Source is the AT&T-syntax assembly to optimize.
	Source string
	// Spec is the ':'-separated pass pipeline.
	Spec string
	// Check, Explain and Verify are the response-shaping option flags.
	Check   bool
	Explain bool
	Verify  bool
}

// DefaultName is the unit name an unnamed JSON request gets; it is
// part of the key, so it is fixed here for both daemon and router.
const DefaultName = "request.s"

// Key returns the content address of r: 64 lowercase hex digits of
// SHA-256 over the length-delimited field encoding. The encoding
// prefixes the variable-length source with its byte length so that no
// (source, name, spec) concatenation can collide with another split of
// the same bytes.
func Key(r Request) string {
	name := r.Name
	if name == "" {
		name = DefaultName
	}
	h := sha256.New()
	fmt.Fprintf(h, "src:%d:", len(r.Source))
	h.Write([]byte(r.Source))
	fmt.Fprintf(h, ":name:%s:spec:%s:check:%t:explain:%t:verify:%t",
		name, r.Spec, r.Check, r.Explain, r.Verify)
	return hex.EncodeToString(h.Sum(nil))
}
