//! Query-lifetime transport meshes.
//!
//! The paper's central cost claim is that MPC wall-clock is dominated by
//! synchronous communication rounds, not bytes, so connection set-up must
//! not be paid per round or per plan step: a [`Mesh`] is the full set of
//! per-party endpoints, built **once per query** (one TCP handshake per link
//! for the whole plan) and handed to the per-party workers. Rebuilding a
//! mesh per plan step shows up as `NetStats::mesh_builds > 1`.

use crate::transport::{ChannelTransport, TcpTransport, Transport, TransportError};

/// A query-lifetime transport mesh: one endpoint per party, indexed by party
/// id. Build it once with [`Mesh::channel`] / [`Mesh::tcp_localhost`] (or
/// wrap externally-connected endpoints with [`Mesh::from_endpoints`]), then
/// split it into its endpoints with [`Mesh::into_endpoints`] and hand one to
/// each party's worker thread for the lifetime of the query.
pub struct Mesh {
    endpoints: Vec<Box<dyn Transport>>,
}

impl Mesh {
    /// Builds an in-process channel mesh of `n` parties.
    pub fn channel(n: u32) -> Mesh {
        Mesh::from_endpoints(ChannelTransport::mesh(n))
    }

    /// Builds a localhost TCP mesh of `n` parties (one handshake per link).
    pub fn tcp_localhost(n: u32) -> Result<Mesh, TransportError> {
        Ok(Mesh::from_endpoints(TcpTransport::localhost_mesh(n)?))
    }

    /// Wraps pre-connected endpoints (ordered by party id) into a mesh.
    pub fn from_endpoints<T: Transport + 'static>(endpoints: Vec<T>) -> Mesh {
        for (i, e) in endpoints.iter().enumerate() {
            assert_eq!(
                e.party(),
                i as u32,
                "mesh endpoints must be ordered by party id"
            );
        }
        Mesh {
            endpoints: endpoints
                .into_iter()
                .map(|e| Box::new(e) as Box<dyn Transport>)
                .collect(),
        }
    }

    /// Number of parties in the mesh.
    pub fn parties(&self) -> u32 {
        self.endpoints.len() as u32
    }

    /// Splits the mesh into its per-party endpoints (ordered by party id),
    /// each of which can move to its party's worker thread.
    pub fn into_endpoints(self) -> Vec<Box<dyn Transport>> {
        self.endpoints
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_builds_once_and_splits_into_endpoints() {
        let mesh = Mesh::channel(3);
        assert_eq!(mesh.parties(), 3);
        let endpoints = mesh.into_endpoints();
        assert_eq!(endpoints.len(), 3);
        for (i, e) in endpoints.iter().enumerate() {
            assert_eq!(e.party(), i as u32);
            assert_eq!(e.stats().mesh_builds, 1);
        }
    }
}
