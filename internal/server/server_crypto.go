package server

// Server-side execution of the signing-service ops, delegated to a
// cryptosvc.Service (blinded private-key paths, CRT over paired engine
// jobs, verify-before-release). A forwarding server hands them on like
// any other op, routed by key handle (see forward.go).

import (
	"context"
	"math/big"

	"repro/internal/cryptosvc"
)

// WithSignService overrides the cryptosvc.Service the engine-backed
// server executes signing ops with (NewServer default: cryptosvc.New on
// the server's engine, blinding on). It has no effect on
// NewForwardingServer, which executes no signing op itself.
func WithSignService(svc *cryptosvc.Service) Option {
	return func(c *config) { c.signSvc = svc }
}

// bigBool encodes a verification verdict as the wire's 0/1 big.
func bigBool(ok bool) *big.Int {
	if ok {
		return big.NewInt(1)
	}
	return big.NewInt(0)
}

// Service calls of the signing rows.

func (s *Server) keygenRSA(ctx context.Context, req *request) *response {
	key, err := s.svc.KeygenRSA(ctx, req.crypto.bits, req.crypto.seed)
	if err != nil {
		return failure(err)
	}
	return &response{code: CodeOK, values: keyBigs(key)}
}

func (s *Server) signRSA(ctx context.Context, req *request) *response {
	return result(s.svc.SignRSA(ctx, req.crypto.key, req.crypto.digest))
}

func (s *Server) verifyRSA(ctx context.Context, req *request) *response {
	cb := req.crypto
	ok, err := s.svc.VerifyRSA(ctx, cb.n, cb.e, cb.digest, cb.sig)
	return result(bigBool(ok), err)
}

func (s *Server) signECDSA(ctx context.Context, req *request) *response {
	cb := req.crypto
	r, sv, err := s.svc.SignECDSA(ctx, cb.curve, cb.d, cb.digest, cb.seed)
	if err != nil {
		return failure(err)
	}
	return &response{code: CodeOK, values: []*big.Int{r, sv}}
}

func (s *Server) verifyECDSABatch(ctx context.Context, req *request) *response {
	cb := req.crypto
	res, err := s.svc.VerifyECDSABatch(ctx, cb.curve, cb.items)
	return perItemResult(len(res), len(cb.items), err, func(i int) (*big.Int, error) {
		return bigBool(res[i].OK), res[i].Err
	})
}
