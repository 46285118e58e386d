package fronthaul

import "io"

// The codec tests work on bare payloads and on frames written and read one at
// a time over any io.Reader/io.Writer. These helpers give them that view of
// the frame-at-once production codec: encodeX is frameX without its header,
// writeFrame seals a payload and sends it in one Write, and readFrame reads
// exactly one frame and not a byte more (no read-ahead, so it can be called
// repeatedly on a shared stream).

func encodeRequest(req *Request) ([]byte, error) { return payloadOf(frameRequest(req)) }

func encodeRegisterChannel(req *RegisterChannelRequest) ([]byte, error) {
	return payloadOf(frameRegisterChannel(req))
}

func encodeStatsResponse(resp *StatsResponse) ([]byte, error) {
	return payloadOf(frameStatsResponse(resp))
}

func encodeResponse(resp *DecodeResponse) []byte { return frameResponse(resp)[frameHeaderLen:] }

func encodeRegisterResponse(resp *RegisterChannelResponse) []byte {
	return frameRegisterResponse(resp)[frameHeaderLen:]
}

func encodeStatsRequest(req *StatsRequest) []byte { return frameStatsRequest(req)[frameHeaderLen:] }

func payloadOf(frame []byte, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	return frame[frameHeaderLen:], nil
}

func writeFrame(w io.Writer, msgType uint8, payload []byte) error {
	return sendFrame(w, sealFrame(append(newFrame(len(payload)), payload...), msgType))
}

func readFrame(r io.Reader) (msgType uint8, payload []byte, err error) {
	return (&frameReader{r: r}).next()
}
