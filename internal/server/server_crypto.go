package server

// Server-side execution of the signing-service ops. The engine-backed
// handler delegates to a cryptosvc.Service (blinded private-key paths,
// CRT over paired engine jobs, verify-before-release); the cluster
// balancer implements SignHandler itself and routes by key handle. A
// Handler that implements neither answers the signing ops with
// CodeProtocol, so a mixed fleet degrades to "no signing here", never
// to misparsed frames.

import (
	"context"
	"math/big"

	"repro/internal/cryptosvc"
	"repro/internal/rsa"
)

// SignHandler extends Handler with the signing-service operations. The
// method set mirrors cryptosvc.Service — the engine-backed server, the
// wire client and the cluster balancer all satisfy it, which is what
// lets montsyslb front signing backends without protocol changes.
type SignHandler interface {
	Handler
	// KeygenRSA generates a deterministic RSA key from seed
	// (reproduction/test-only — see OpKeygenRSA).
	KeygenRSA(ctx context.Context, bits int, seed int64) (*rsa.PrivateKey, error)
	// SignRSA signs a digest with the blinded (service-configured)
	// private-key path, CRT when the key carries its factors.
	SignRSA(ctx context.Context, key *rsa.PrivateKey, digest *big.Int) (*big.Int, error)
	// VerifyRSA checks sig^E ≡ digest (mod n).
	VerifyRSA(ctx context.Context, n, e, digest, sig *big.Int) (bool, error)
	// SignECDSA signs a digest with the deterministic nonce derived
	// from seed.
	SignECDSA(ctx context.Context, curveID uint8, d, digest *big.Int, seed int64) (r, s *big.Int, err error)
	// VerifyECDSABatch verifies items with per-item verdicts.
	VerifyECDSABatch(ctx context.Context, curveID uint8, items []cryptosvc.ECDSAVerifyItem) ([]cryptosvc.VerifyResult, error)
}

// WithSignService overrides the cryptosvc.Service the engine-backed
// server executes signing ops with (NewServer default: cryptosvc.New on
// the server's engine, blinding on). It has no effect on
// NewHandlerServer — there the handler itself either implements
// SignHandler or the ops are unsupported.
func WithSignService(svc *cryptosvc.Service) Option {
	return func(c *config) { c.signSvc = svc }
}

// Engine-backed SignHandler methods: delegate to the cryptosvc.Service.

func (h engineHandler) KeygenRSA(ctx context.Context, bits int, seed int64) (*rsa.PrivateKey, error) {
	return h.svc.KeygenRSA(ctx, bits, seed)
}

func (h engineHandler) SignRSA(ctx context.Context, key *rsa.PrivateKey, digest *big.Int) (*big.Int, error) {
	return h.svc.SignRSA(ctx, key, digest)
}

func (h engineHandler) VerifyRSA(ctx context.Context, n, e, digest, sig *big.Int) (bool, error) {
	return h.svc.VerifyRSA(ctx, n, e, digest, sig)
}

func (h engineHandler) SignECDSA(ctx context.Context, curveID uint8, d, digest *big.Int, seed int64) (*big.Int, *big.Int, error) {
	return h.svc.SignECDSA(ctx, curveID, d, digest, seed)
}

func (h engineHandler) VerifyECDSABatch(ctx context.Context, curveID uint8, items []cryptosvc.ECDSAVerifyItem) ([]cryptosvc.VerifyResult, error) {
	return h.svc.VerifyECDSABatch(ctx, curveID, items)
}

// bigBool encodes a verification verdict as the wire's 0/1 big.
func bigBool(ok bool) *big.Int {
	if ok {
		return big.NewInt(1)
	}
	return big.NewInt(0)
}

// Handler calls of the signing rows; execute has already checked that
// s.sign is non-nil.

func (s *Server) keygenRSA(ctx context.Context, req *request) *response {
	key, err := s.sign.KeygenRSA(ctx, req.crypto.bits, req.crypto.seed)
	if err != nil {
		return failure(err)
	}
	return &response{code: CodeOK, values: keyBigs(key)}
}

func (s *Server) signRSA(ctx context.Context, req *request) *response {
	return result(s.sign.SignRSA(ctx, req.crypto.key, req.crypto.digest))
}

func (s *Server) verifyRSA(ctx context.Context, req *request) *response {
	cb := req.crypto
	ok, err := s.sign.VerifyRSA(ctx, cb.n, cb.e, cb.digest, cb.sig)
	return result(bigBool(ok), err)
}

func (s *Server) signECDSA(ctx context.Context, req *request) *response {
	cb := req.crypto
	r, sv, err := s.sign.SignECDSA(ctx, cb.curve, cb.d, cb.digest, cb.seed)
	if err != nil {
		return failure(err)
	}
	return &response{code: CodeOK, values: []*big.Int{r, sv}}
}

func (s *Server) verifyECDSABatch(ctx context.Context, req *request) *response {
	cb := req.crypto
	res, err := s.sign.VerifyECDSABatch(ctx, cb.curve, cb.items)
	return perItemResult(len(res), len(cb.items), err, func(i int) (*big.Int, error) {
		return bigBool(res[i].OK), res[i].Err
	})
}
