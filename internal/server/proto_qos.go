package server

// Wire extension: tenant-tagged op variants and the rate-limited code.
// Like the traced variants and the signing ops, the extension is
// append-only — every frame an old peer can produce or parse stays
// byte-identical, and an old server answers a tagged op with
// CodeProtocol instead of misparsing it, so a mixed-version fleet
// degrades to untagged (default-tenant) calls, never to corruption.
//
// A tagged op is its plain or traced wire byte plus OpQoSOffset, for
// every op whose opTable row declares tagged (e.g. modexp=2 → 66,
// traced modexp=6 → 70). A tagged frame carries a QoS block between the
// deadline and the (optional) trace block:
//
//	byte   class         0=interactive 1=batch 2=best-effort
//	string tenant        uint32 len ‖ bytes, len ≤ 255
//
// Decoding strips the tag and normalizes req.op to the base op
// immediately, exactly as with traced variants, so metrics labels and
// dispatch never see tagged values.

import (
	"fmt"

	"repro/internal/errs"
	"repro/internal/qos"
)

// CodeRateLimited reports per-tenant admission rejecting a request
// because the tenant's token bucket was empty (errs.ErrRateLimited).
// The response message carries the retry-after hint in the fixed
// grammar of errs.RateLimited.Error, which errFor parses back so the
// client-side error exposes the hint structurally. Appended to the
// frozen code list.
const CodeRateLimited Code = 13

// maxTenantLen bounds the tenant name in a QoS block; combined with
// the fold-in bucket on the server it keeps hostile frames from
// ballooning decode allocations or metric cardinality.
const maxTenantLen = 255

// encodeQoSBlock appends the QoS block of a tagged request.
func encodeQoSBlock(b []byte, req *request) []byte {
	b = append(b, byte(req.class))
	return appendString(b, req.tenant)
}

// decodeQoSBlock parses the QoS block into req. An unknown class byte
// from a newer peer degrades to best-effort rather than erroring: a
// class this server does not know cannot be more urgent than the ones
// it does.
func decodeQoSBlock(d *decoder, req *request) error {
	cb, err := d.byte()
	if err != nil {
		return err
	}
	req.class = qos.Class(cb)
	if req.class >= qos.NumClasses {
		req.class = qos.BestEffort
	}
	tenant, err := d.string()
	if err != nil {
		return err
	}
	if len(tenant) > maxTenantLen {
		return fmt.Errorf("server: tenant name of %d bytes exceeds limit %d: %w",
			len(tenant), maxTenantLen, errs.ErrProtocol)
	}
	req.tenant = tenant
	return nil
}
