package fronthaul

import "io"

// The codec tests work on bare payloads and on frames written and read one at
// a time over any io.Reader/io.Writer. These helpers give them that view of
// the frame-at-once production codec: encodeX is frameX without its header
// into fresh storage, decodeX decodes into a fresh message, writeFrame seals
// a payload and sends it in one Write, and readFrame reads exactly one frame
// and not a byte more (no read-ahead, so it can be called repeatedly on a
// shared stream).

func encodeRequest(req *Request) ([]byte, error) { return payloadOf(frameRequest(nil, req)) }

func decodeRequest(payload []byte) (*Request, error) {
	req := new(Request)
	if err := req.decode(payload); err != nil {
		return nil, err
	}
	return req, nil
}

func encodeRegisterChannel(req *RegisterChannelRequest) ([]byte, error) {
	return payloadOf(frameRegisterChannel(nil, req))
}

func encodeStatsResponse(resp *StatsResponse) ([]byte, error) {
	return payloadOf(frameStatsResponse(resp))
}

func encodeResponse(resp *DecodeResponse) []byte { return frameResponse(nil, resp)[frameHeaderLen:] }

func decodeResponse(payload []byte) (*DecodeResponse, error) {
	resp := new(DecodeResponse)
	if err := resp.decode(payload, new(backendNames)); err != nil {
		return nil, err
	}
	return resp, nil
}

func encodeRegisterResponse(resp *RegisterChannelResponse) []byte {
	return frameRegisterResponse(nil, resp)[frameHeaderLen:]
}

func encodeStatsRequest(req *StatsRequest) []byte { return frameStatsRequest(req)[frameHeaderLen:] }

func payloadOf(frame []byte, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	return frame[frameHeaderLen:], nil
}

func writeFrame(w io.Writer, msgType uint8, payload []byte) error {
	return sendFrame(w, sealFrame(append(newFrame(nil, len(payload)), payload...), msgType))
}

func readFrame(r io.Reader) (msgType uint8, payload []byte, err error) {
	return (&frameReader{r: r}).next()
}
