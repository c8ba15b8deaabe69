//! Streams a simulation's deliveries into a *remote* audit server.
//!
//! The [`RemoteRecorder`] is the cross-process sibling of
//! [`piprov_audit::AuditRecorder`]: it implements
//! [`piprov_runtime::DeliverySink`], but instead of appending into a
//! shared in-process engine it buffers records into an [`AuditClient`]'s
//! fire-and-batch path, so a simulation in one process streams its
//! supply-chain deliveries into an [`crate::AuditServer`] in another —
//! one round trip per batch, back-pressure absorbed by the client's
//! blocking retry.
//!
//! [`piprov_runtime::Simulation::run_with_sink`] calls the sink's `flush`
//! hook when the run ends, which ships the partial tail batch and issues
//! the server-side flush barrier — after `run_with_sink` returns, every
//! delivered record is queryable (and durable) server-side.

use crate::client::{AuditClient, ClientError};
use piprov_core::name::Principal;
use piprov_core::system::Message;
use piprov_runtime::{DeliverySink, VirtualTime};
use piprov_store::{Operation, ProvenanceRecord};

/// A [`DeliverySink`] that streams every delivered value to an audit
/// server through a batching [`AuditClient`].
#[derive(Debug)]
pub struct RemoteRecorder {
    client: AuditClient,
    recorded: usize,
    /// Records buffered since the last successful flush barrier —
    /// [`RemoteRecorder::finish`] skips the barrier when the run's
    /// end-of-run `flush` already ran it.
    dirty: bool,
    /// Watermark reported by the last successful flush barrier: every
    /// record streamed before it is visible server-side at (or below)
    /// this sequence number.
    last_watermark: Option<u64>,
    /// The first client error encountered (the sink interface cannot
    /// propagate it mid-run).
    error: Option<ClientError>,
}

impl RemoteRecorder {
    /// Wraps a connected client.  [`crate::ClientConfig::batch_size`]
    /// controls the fire-and-batch granularity.
    pub fn new(client: AuditClient) -> Self {
        RemoteRecorder {
            client,
            recorded: 0,
            dirty: false,
            last_watermark: None,
            error: None,
        }
    }

    /// Records handed to the client so far (buffered or shipped).
    pub fn recorded(&self) -> usize {
        self.recorded
    }

    /// The snapshot watermark of the last completed flush barrier, if one
    /// ran — the sequence number a downstream auditor can poll the
    /// server's watermark ([`crate::AuditClient::stats`], or any audit
    /// response) against to read this producer's writes.
    pub fn last_watermark(&self) -> Option<u64> {
        self.last_watermark
    }

    /// Consumes the recorder: ships the buffered tail, issues the
    /// server-side flush barrier, and surfaces the first error of the
    /// run.  Returns the number of records recorded and the client (for
    /// follow-up queries on the same connection).
    ///
    /// # Errors
    ///
    /// The first error any delivery hit, or a flush failure.
    pub fn finish(mut self) -> Result<(usize, AuditClient), ClientError> {
        if let Some(error) = self.error.take() {
            return Err(error);
        }
        // `run_with_sink` already flushed at run end; only repeat the
        // barrier if deliveries arrived since (or no run flushed at all).
        if self.dirty {
            self.client.flush()?;
        }
        Ok((self.recorded, self.client))
    }

    /// Consumes the recorder like [`RemoteRecorder::finish`], also
    /// returning the final flush watermark (running the barrier if
    /// deliveries arrived since the last one).
    ///
    /// # Errors
    ///
    /// As [`RemoteRecorder::finish`].
    pub fn finish_with_watermark(mut self) -> Result<(usize, u64, AuditClient), ClientError> {
        if let Some(error) = self.error.take() {
            return Err(error);
        }
        let watermark = match (self.dirty, self.last_watermark) {
            (false, Some(watermark)) => watermark,
            _ => self.client.flush()?.watermark,
        };
        Ok((self.recorded, watermark, self.client))
    }
}

impl DeliverySink for RemoteRecorder {
    fn delivered(&mut self, sender: &Principal, message: &Message, at: VirtualTime) {
        if self.error.is_some() {
            return;
        }
        for value in &message.payload {
            let record = ProvenanceRecord::new(
                at,
                sender.clone(),
                Operation::Send,
                message.channel.clone(),
                value.value.clone(),
                value.provenance.clone(),
            );
            match self.client.buffer(record) {
                Ok(()) => {
                    self.recorded += 1;
                    self.dirty = true;
                }
                Err(error) => {
                    self.error = Some(error);
                    return;
                }
            }
        }
    }

    fn flush(&mut self) {
        if self.error.is_some() {
            return;
        }
        match self.client.flush() {
            Ok(ack) => {
                self.dirty = false;
                self.last_watermark = Some(ack.watermark);
            }
            Err(error) => self.error = Some(error),
        }
    }
}
