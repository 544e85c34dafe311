//! A shard that answers with well-formed frames but breaks the shard
//! protocol — the wrong result variant for a query, or a shard-local id
//! past its placement range — must surface as a typed
//! [`CoordinatorError::Protocol`] under every failure policy, never as
//! a merged (and therefore wrong) answer.
//!
//! The shard here is a fake built from a bare `TcpListener` and the
//! public frame codec: it answers the `Hello` handshake truthfully and
//! then replies to every `ShardRequest` with one fixed `ShardResult`
//! per query.

use std::net::{TcpListener, TcpStream};

use traj_query::{Dissimilarity, KnnQuery, Query, QueryBatch};
use traj_serve::wire::{read_message, write_message, Message};
use traj_serve::{
    Coordinator, CoordinatorError, CoordinatorOptions, FailurePolicy, Placement, ShardInfo,
    ShardResult,
};
use trajectory::{Cube, Point, Trajectory};

/// Trajectories the fake shard claims to serve (global ids `0..TRAJS`).
const TRAJS: usize = 2;

/// Starts a fake shard on a loopback port that serves any number of
/// connections, each on its own thread, and replies to every query of
/// every `ShardRequest` with `reply`. Returns its address.
fn fake_shard(reply: ShardResult) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake shard");
    let addr = listener.local_addr().expect("fake shard addr").to_string();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { return };
            let reply = reply.clone();
            std::thread::spawn(move || serve(stream, &reply));
        }
    });
    addr
}

fn serve(mut stream: TcpStream, reply: &ShardResult) {
    while let Ok(Some(msg)) = read_message(&mut stream) {
        let answer = match msg {
            Message::Hello => Message::ShardInfo(ShardInfo {
                trajs: TRAJS as u64,
                points: 4,
                has_kept: false,
                bounds: None,
            }),
            Message::ShardRequest { id, batch } => Message::ShardResponse {
                id,
                results: vec![reply.clone(); batch.len()],
            },
            _ => return,
        };
        if write_message(&mut stream, &answer).is_err() {
            return;
        }
    }
}

fn connect(addr: String) -> Coordinator {
    let placement = Placement::from_parts(vec![(addr, (0..TRAJS).collect())]).expect("placement");
    Coordinator::connect(placement, CoordinatorOptions::default()).expect("connect fake shard")
}

fn probe() -> Trajectory {
    Trajectory::new(vec![Point::new(0.0, 0.0, 0.0), Point::new(1.0, 1.0, 10.0)]).unwrap()
}

fn assert_protocol_error(addr: &str, batch: &QueryBatch) {
    let coordinator = connect(addr.to_owned());
    for policy in [FailurePolicy::FailFast, FailurePolicy::Degrade] {
        match coordinator.execute_batch_with(batch, policy) {
            Err(CoordinatorError::Protocol { shard, .. }) => assert_eq!(shard, 0, "{policy:?}"),
            other => panic!("{policy:?}: expected a protocol error, got {other:?}"),
        }
    }
}

#[test]
fn id_hits_for_a_knn_query_are_a_protocol_error() {
    let addr = fake_shard(ShardResult::Ids(vec![0]));
    let batch = QueryBatch::from_queries(vec![Query::Knn(KnnQuery {
        query: probe(),
        ts: 0.0,
        te: 10.0,
        k: 1,
        measure: Dissimilarity::Edr { eps: 1.0 },
    })]);
    assert_protocol_error(&addr, &batch);
}

#[test]
fn local_id_past_the_placement_range_is_a_protocol_error() {
    let addr = fake_shard(ShardResult::Ids(vec![TRAJS]));
    let batch =
        QueryBatch::from_queries(vec![Query::Range(Cube::new(0.0, 1.0, 0.0, 1.0, 0.0, 10.0))]);
    assert_protocol_error(&addr, &batch);
}
