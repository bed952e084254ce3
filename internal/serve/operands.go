// The store-facing half of the serve codec (DESIGN.md §13): where
// codec.go decodes wire formats, this file resolves operands through
// the session's content-addressed store — the PUT /v1/operands upload
// endpoint (full matrices or a values-only delta), the reference form
// of /v1/multiply (operands named by fingerprint, nothing on the wire
// but the envelope), and the store-through that files every inline
// operand so the next request can reference it.

package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"mime"
	"mime/multipart"
	"net/http"
	"net/url"
	"strings"

	maskedspgemm "maskedspgemm"
	"maskedspgemm/internal/store"
)

// refRequest is the parsed reference form of a multiply: operands
// named by fingerprint instead of carried in the body.
type refRequest struct {
	maskFP     uint64
	aRef, bRef store.Ref
}

// describe renders the request's operand fingerprints for the panic
// log — the same hex forms the store addresses them by.
func (r *refRequest) describe() string {
	return fmt.Sprintf("mask=%016x a=%s b=%s", r.maskFP, r.aRef.String(), r.bRef.String())
}

// parseRefForm recognizes the reference form of /v1/multiply: ?a=
// names A by content ref ("patternhex:valueshex"), optional ?b= a
// second ref (default A), optional ?mask= a structure fingerprint
// (default A's pattern — the self-mask graph shape). Returns (nil,
// nil) for inline requests (no reference parameters at all).
func parseRefForm(q url.Values) (*refRequest, error) {
	aStr := q.Get("a")
	if aStr == "" {
		if q.Get("b") != "" || q.Get("mask") != "" {
			return nil, fmt.Errorf("serve: reference form requires a= (b= and mask= only qualify it)")
		}
		return nil, nil
	}
	aRef, err := store.ParseRef(aStr)
	if err != nil {
		return nil, fmt.Errorf("serve: bad a reference: %w", err)
	}
	req := &refRequest{aRef: aRef, bRef: aRef, maskFP: aRef.Pattern}
	if bStr := q.Get("b"); bStr != "" {
		if req.bRef, err = store.ParseRef(bStr); err != nil {
			return nil, fmt.Errorf("serve: bad b reference: %w", err)
		}
	}
	if mStr := q.Get("mask"); mStr != "" {
		if req.maskFP, err = store.ParseFingerprint(mStr); err != nil {
			return nil, fmt.Errorf("serve: bad mask fingerprint: %w", err)
		}
	}
	return req, nil
}

// namedUpload is one matrix received by PUT /v1/operands.
type namedUpload struct {
	name string
	m    *maskedspgemm.Matrix
}

// decodeUploads parses a PUT /v1/operands body: one raw matrix
// (either wire format), or multipart/form-data whose every part is a
// matrix — part names are echoed back but carry no meaning, so
// clients may label uploads mask/a/b or anything else.
func decodeUploads(r *http.Request) ([]namedUpload, error) {
	ct := r.Header.Get("Content-Type")
	mediaType, params, err := mime.ParseMediaType(ct)
	if ct != "" && err == nil && strings.HasPrefix(mediaType, "multipart/") {
		mr := multipart.NewReader(r.Body, params["boundary"])
		var ups []namedUpload
		for {
			part, err := mr.NextPart()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, fmt.Errorf("serve: bad multipart body: %w", err)
			}
			m, err := decodeMatrix(part)
			part.Close()
			if err != nil {
				return nil, fmt.Errorf("serve: part %q: %w", part.FormName(), err)
			}
			ups = append(ups, namedUpload{name: part.FormName(), m: m})
		}
		if len(ups) == 0 {
			return nil, fmt.Errorf("serve: multipart upload holds no operands")
		}
		return ups, nil
	}
	m, err := decodeMatrix(r.Body)
	if err != nil {
		return nil, err
	}
	return []namedUpload{{m: m}}, nil
}

// decodeValuesBody parses a values-only delta: raw little-endian
// float64 words, nothing else — the minimal wire form for refreshing
// the numbers of a resident structure.
func decodeValuesBody(r *http.Request) ([]float64, error) {
	data, err := io.ReadAll(r.Body)
	if err != nil {
		return nil, err
	}
	if len(data) == 0 || len(data)%8 != 0 {
		return nil, fmt.Errorf("serve: values body must be a non-empty multiple of 8 bytes (little-endian float64 words), got %d", len(data))
	}
	vals := make([]float64, len(data)/8)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return vals, nil
}

// operandReceipt is one stored operand as PUT /v1/operands reports it.
type operandReceipt struct {
	// Name echoes the multipart part name; empty for raw bodies.
	Name string `json:"name,omitempty"`
	// Pattern and Values are the fingerprint halves, hex.
	Pattern string `json:"pattern"`
	Values  string `json:"values"`
	// Ref is the combined "pattern:values" form /v1/multiply accepts.
	Ref string `json:"ref"`
	// Created is false when the content was already resident (the
	// idempotent re-PUT).
	Created bool `json:"created"`
	// NNZ is the operand's stored-entry count.
	NNZ int64 `json:"nnz"`
}

// receiptFor files m in the session store and describes the result.
func (s *Server) receiptFor(name string, m *maskedspgemm.Matrix) operandReceipt {
	nnz := m.NNZ()
	ref, created := s.session.PutOperand(m)
	return operandReceipt{
		Name:    name,
		Pattern: fmt.Sprintf("%016x", ref.Pattern),
		Values:  fmt.Sprintf("%016x", ref.Values),
		Ref:     ref.String(),
		Created: created,
		NNZ:     nnz,
	}
}

// handleOperands is PUT /v1/operands: upload operands once, multiply
// by reference afterwards. Two bodies are accepted — full matrices
// (raw or multipart, stored under their content address; re-PUT of
// resident content is a cheap idempotent 200) and, with
// ?values_for=<pattern-fp>, a values-only delta that re-keys fresh
// numbers under a resident structure (404 when the structure is not
// resident). Uploads pass the same admission gate as multiplies:
// decoding and hashing bodies is real memory and CPU, so at most
// MaxInFlight bodies are in flight, drain rejects uploads with 503,
// and saturation sheds them with 429.
func (s *Server) handleOperands(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPut && r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "PUT required")
		return
	}
	valuesFor := r.URL.Query().Get("values_for")
	var patternFP uint64
	if valuesFor != "" {
		var err error
		if patternFP, err = store.ParseFingerprint(valuesFor); err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	wait, err := queueDeadline(r, s.cfg.QueueTimeout)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	switch s.adm.acquire(r.Context(), wait) {
	case admitted:
		defer s.adm.release()
	case admitShed:
		s.retryAfter(w)
		httpError(w, http.StatusTooManyRequests, "admission queue full; retry later")
		return
	case admitExpired:
		s.retryAfter(w)
		httpError(w, http.StatusServiceUnavailable, "queue deadline expired before an upload slot freed")
		return
	case admitDraining:
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	case admitCanceled:
		return
	}

	var receipts []operandReceipt
	if valuesFor != "" {
		vals, status, err := readGuarded(s, w, r, decodeValuesBody)
		if err != nil {
			httpError(w, status, err.Error())
			return
		}
		ref, created, err := s.session.PutOperandValues(patternFP, vals)
		var unknown *store.ErrUnknownPattern
		switch {
		case errors.As(err, &unknown):
			writeJSONStatus(w, http.StatusNotFound, missingResponse{
				Error:   err.Error(),
				Missing: []missingOperandJSON{{Operand: "pattern", Pattern: fmt.Sprintf("%016x", unknown.Fingerprint)}},
			})
			return
		case err != nil:
			httpError(w, http.StatusUnprocessableEntity, err.Error())
			return
		}
		receipts = append(receipts, operandReceipt{
			Pattern: fmt.Sprintf("%016x", ref.Pattern),
			Values:  fmt.Sprintf("%016x", ref.Values),
			Ref:     ref.String(),
			Created: created,
			NNZ:     int64(len(vals)),
		})
	} else {
		ups, status, err := readGuarded(s, w, r, decodeUploads)
		if err != nil {
			httpError(w, status, err.Error())
			return
		}
		for _, up := range ups {
			receipts = append(receipts, s.receiptFor(up.name, up.m))
		}
	}
	writeJSON(w, operandsResponse{Operands: receipts, Store: s.session.Stats().Store})
}

// operandsResponse is the PUT /v1/operands payload.
type operandsResponse struct {
	// Operands describes each stored upload, in body order.
	Operands []operandReceipt `json:"operands"`
	// Store is the post-upload store snapshot.
	Store maskedspgemm.StoreStats `json:"store"`
}

// missingOperandJSON names one unresolved operand in a 404.
type missingOperandJSON struct {
	// Operand is the request role: "mask", "a", "b" (or "pattern" for
	// a values delta against a non-resident structure).
	Operand string `json:"operand"`
	// Pattern is the unresolved structure fingerprint, hex.
	Pattern string `json:"pattern"`
	// Values is the unresolved values fingerprint, hex; omitted for
	// structure-only references.
	Values string `json:"values,omitempty"`
}

// missingResponse is the 404 payload of a dangling reference: every
// missing operand is named, so one round trip tells the client
// exactly what to re-upload.
type missingResponse struct {
	// Error is the human-readable summary.
	Error string `json:"error"`
	// Missing lists the unresolved operands.
	Missing []missingOperandJSON `json:"missing"`
}

// writeMissing maps a MissingOperandsError to its 404 payload.
func writeMissing(w http.ResponseWriter, err *maskedspgemm.MissingOperandsError) {
	resp := missingResponse{Error: err.Error()}
	for _, m := range err.Missing {
		mj := missingOperandJSON{Operand: m.Operand, Pattern: fmt.Sprintf("%016x", m.Pattern)}
		if m.Operand != "mask" {
			mj.Values = fmt.Sprintf("%016x", m.Values)
		}
		resp.Missing = append(resp.Missing, mj)
	}
	writeJSONStatus(w, http.StatusNotFound, resp)
}

// storeThrough files an inline request's operands in the session
// store and answers with their refs in response headers
// (X-Operand-Mask / X-Operand-A / X-Operand-B), so a client that just
// paid the upload learns the references that make its next request
// free. Ownership of the decoded matrices passes to the store; the
// request keeps using them read-only, which the ownership contract
// permits (DESIGN.md §8).
func (s *Server) storeThrough(w http.ResponseWriter, ops *operands) {
	aRef, _ := s.session.PutOperand(ops.a)
	bRef := aRef
	if ops.b != ops.a {
		bRef, _ = s.session.PutOperand(ops.b)
	}
	maskFP := aRef.Pattern
	switch {
	case ops.maskM == nil || ops.maskM == ops.a:
		// mask defaulted to (or was uploaded as) A's structure.
	case ops.maskM == ops.b:
		maskFP = bRef.Pattern
	default:
		mRef, _ := s.session.PutOperand(ops.maskM)
		maskFP = mRef.Pattern
	}
	h := w.Header()
	h.Set("X-Operand-Mask", fmt.Sprintf("%016x", maskFP))
	h.Set("X-Operand-A", aRef.String())
	h.Set("X-Operand-B", bRef.String())
}
