//! The *pipeline* subcontract: promise-returning asynchronous invocation.
//!
//! The paper's §8.4 invites exactly this kind of third-party extension:
//! new invocation semantics delivered as a subcontract, with no stub or
//! base-system changes. A pipeline object is wire-compatible with the
//! other single-door subcontracts — one door identifier, the standard
//! marshalled header — but besides the usual synchronous
//! [`Subcontract::invoke`] it offers [`Pipeline::invoke_async`], which
//! returns a [`Promise`] immediately. One thread can therefore issue N
//! calls before collecting any reply; each runs on a worker thread and
//! ships in its own wire frame, so the N latency-bound round trips overlap
//! and the burst costs about one.
//!
//! Retries ride the same at-most-once machinery as `Reconnectable`: every
//! attempt of one logical call shares a [`spring_kernel::CallId`] nonce and
//! deadline, so the server-side reply cache deduplicates replies lost in
//! flight, and exactly-once-for-success semantics survive pipelining.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

use spring_buf::CommBuffer;
use spring_kernel::{Domain, DoorError, DoorId, Message};
use spring_trace::TraceCtx;
use subcontract::{
    get_obj_header, put_obj_header, redispatch_if_foreign, Dispatch, DomainCtx, ObjParts, Repr,
    Result, ScId, SpringError, SpringObj, Subcontract, TypeInfo,
};

use crate::caching::DirectHandler;
use crate::retry::Invocation;

pub use crate::retry::RetryPolicy;

/// Client representation: one kernel door identifier plus the retry policy
/// the unmarshalling domain's registered instance carried. The policy is
/// machine-local — it never travels on the wire, so each client retries on
/// its own terms.
#[derive(Debug)]
struct PipelineRepr {
    door: DoorId,
    policy: RetryPolicy,
}

/// The pipeline subcontract (client and server side).
#[derive(Debug, Default)]
pub struct Pipeline {
    policy: RetryPolicy,
}

impl Pipeline {
    /// The identifier carried in pipeline objects' marshalled form.
    pub const ID: ScId = ScId::from_name("pipeline");

    /// Creates the subcontract instance with the default retry policy.
    pub fn new() -> Arc<Pipeline> {
        Arc::new(Pipeline::default())
    }

    /// Creates the subcontract instance with a custom retry policy.
    pub fn with_policy(policy: RetryPolicy) -> Arc<Pipeline> {
        Arc::new(Pipeline { policy })
    }

    /// Exports an object served through the standard direct handler (with
    /// the at-most-once reply cache in front of the skeleton).
    pub fn export(ctx: &Arc<DomainCtx>, disp: Arc<dyn Dispatch>) -> Result<SpringObj> {
        let type_info = disp.type_info();
        ctx.types().register(type_info);
        let handler = Arc::new(DirectHandler {
            ctx: ctx.clone(),
            disp,
            dedup: crate::dedup::ReplyCache::default(),
        });
        let door = ctx.domain().create_door(handler)?;
        let sc = ctx.lookup_subcontract(Self::ID)?;
        let policy = RetryPolicy::default();
        Ok(SpringObj::assemble(
            ctx.clone(),
            type_info,
            sc,
            Repr::new(PipelineRepr { door, policy }),
        ))
    }

    /// Issues a marshalled call asynchronously and returns a [`Promise`]
    /// for the reply. The calling thread does not block: the invocation
    /// (including its whole retry loop) runs on a shared worker pool, so
    /// several outstanding calls overlap on the wire.
    ///
    /// The object must stay alive until its promises resolve: consuming it
    /// deletes the door the in-flight attempts call through.
    pub fn invoke_async(obj: &SpringObj, call: CommBuffer) -> Result<Promise> {
        if obj.subcontract().id() != Self::ID {
            return Err(SpringError::Unsupported(
                "invoke_async requires a pipeline object",
            ));
        }
        let repr = obj.repr().downcast::<PipelineRepr>("pipeline")?;
        let door = repr.door;
        let policy = repr.policy;
        let domain = obj.ctx().domain().clone();
        let parent = spring_trace::current();
        let msg = call.into_message();
        let promise = Promise::new();
        let inner = promise.inner.clone();
        spawn_job(Box::new(move || {
            let settle = SettleOnDrop(inner);
            let outcome = attempt_loop(&domain, door, policy, parent, msg);
            settle.0.fulfill(outcome);
        }));
        Ok(promise)
    }
}

impl Subcontract for Pipeline {
    fn id(&self) -> ScId {
        Self::ID
    }

    fn name(&self) -> &'static str {
        "pipeline"
    }

    fn invoke(&self, obj: &SpringObj, call: CommBuffer) -> Result<CommBuffer> {
        let repr = obj.repr().downcast::<PipelineRepr>(self.name())?;
        let domain = obj.ctx().domain();
        attempt_loop(
            domain,
            repr.door,
            repr.policy,
            spring_trace::current(),
            call.into_message(),
        )
        .map(CommBuffer::from_message)
    }

    fn marshal(&self, _ctx: &Arc<DomainCtx>, parts: ObjParts, buf: &mut CommBuffer) -> Result<()> {
        let repr = parts.repr.into_downcast::<PipelineRepr>(self.name())?;
        put_obj_header(buf, Self::ID, &parts.type_name);
        buf.put_door(repr.door);
        Ok(())
    }

    fn unmarshal(
        &self,
        ctx: &Arc<DomainCtx>,
        expected: &'static TypeInfo,
        buf: &mut CommBuffer,
    ) -> Result<SpringObj> {
        if let Some(obj) = redispatch_if_foreign(Self::ID, ctx, expected, buf)? {
            return Ok(obj);
        }
        let (_, wire_name, actual) = get_obj_header(ctx, expected, buf)?;
        let door = buf.get_door()?;
        Ok(SpringObj::assemble_from_wire(
            ctx.clone(),
            wire_name,
            actual,
            ctx.lookup_subcontract(Self::ID)?,
            Repr::new(PipelineRepr {
                door,
                policy: self.policy,
            }),
        ))
    }

    fn copy(&self, obj: &SpringObj) -> Result<SpringObj> {
        let repr = obj.repr().downcast::<PipelineRepr>(self.name())?;
        let door = obj.ctx().domain().copy_door(repr.door)?;
        Ok(obj.assemble_like(Repr::new(PipelineRepr {
            door,
            policy: repr.policy,
        })))
    }

    fn consume(&self, ctx: &Arc<DomainCtx>, parts: ObjParts) -> Result<()> {
        let repr = parts.repr.into_downcast::<PipelineRepr>(self.name())?;
        ctx.domain().delete_door(repr.door)?;
        Ok(())
    }
}

/// One logical call: at-most-once retries sharing a nonce and deadline,
/// with one "pipeline.attempt" span per attempt parented under the caller's
/// span at issue time (the issuing thread's context does not exist on the
/// worker thread, so it travels here explicitly).
fn attempt_loop(
    domain: &Domain,
    door: DoorId,
    policy: RetryPolicy,
    parent: TraceCtx,
    msg: Message,
) -> Result<Message> {
    let (bytes, arg_doors, trace) = (msg.bytes, msg.doors, msg.trace);
    let mut inv = Invocation::begin(policy);
    loop {
        let attempt = Message {
            bytes: bytes.clone(),
            doors: arg_doors.clone(),
            trace,
            call: inv.call_id(),
            ..Message::default()
        };
        let mut attempt_span = spring_trace::span_child_of(
            spring_trace::keys::PIPELINE_ATTEMPT,
            parent,
            domain.trace_scope(),
            inv.attempt() as u64,
        );
        let outcome = domain.call(door, attempt);
        if outcome.is_err() {
            attempt_span.fail();
        }
        drop(attempt_span);
        match outcome {
            Ok(reply) => return Ok(reply),
            Err(e) if e.is_comm_failure() => inv.backoff()?,
            Err(e) => return Err(e.into()),
        }
    }
}

/// The pending result of a pipelined invocation.
///
/// Completion can be observed three ways: poll [`Promise::is_complete`],
/// register an [`Promise::on_ready`] callback, or block in
/// [`Promise::wait`].
pub struct Promise {
    inner: Arc<PromiseInner>,
}

struct PromiseInner {
    done: AtomicBool,
    state: Mutex<PromiseState>,
    cv: Condvar,
}

#[derive(Default)]
struct PromiseState {
    outcome: Option<Result<Message>>,
    wakers: Vec<Box<dyn FnOnce() + Send>>,
}

impl PromiseInner {
    fn fulfill(&self, outcome: Result<Message>) {
        let wakers = {
            let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
            if state.outcome.is_some() || self.done.load(Ordering::Acquire) {
                return;
            }
            state.outcome = Some(outcome);
            self.done.store(true, Ordering::Release);
            self.cv.notify_all();
            std::mem::take(&mut state.wakers)
        };
        for waker in wakers {
            waker();
        }
    }
}

/// Settles the promise with a comm error if the worker dies before
/// delivering a real outcome (first fulfil wins, so the normal path makes
/// this a no-op).
struct SettleOnDrop(Arc<PromiseInner>);

impl Drop for SettleOnDrop {
    fn drop(&mut self) {
        self.0.fulfill(Err(SpringError::Door(DoorError::Comm(
            "pipelined call aborted".into(),
        ))));
    }
}

impl Promise {
    fn new() -> Promise {
        Promise {
            inner: Arc::new(PromiseInner {
                done: AtomicBool::new(false),
                state: Mutex::new(PromiseState::default()),
                cv: Condvar::new(),
            }),
        }
    }

    /// True once the outcome is available ([`Promise::wait`] will not
    /// block).
    pub fn is_complete(&self) -> bool {
        self.inner.done.load(Ordering::Acquire)
    }

    /// Registers a callback to run when the outcome arrives; runs
    /// immediately (on the current thread) if it already has.
    pub fn on_ready(&self, waker: impl FnOnce() + Send + 'static) {
        let mut state = self.inner.state.lock().unwrap_or_else(|p| p.into_inner());
        if self.is_complete() {
            drop(state);
            waker();
        } else {
            state.wakers.push(Box::new(waker));
        }
    }

    /// Blocks until the outcome arrives and returns the reply buffer.
    pub fn wait(self) -> Result<CommBuffer> {
        let mut state = self.inner.state.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(outcome) = state.outcome.take() {
                return outcome.map(CommBuffer::from_message);
            }
            state = self.inner.cv.wait(state).unwrap_or_else(|p| p.into_inner());
        }
    }
}

/// A small shared worker pool for pipelined invocations.
///
/// Workers are spawned on demand up to a cap, run queued invocation jobs
/// (each job is one logical call's entire retry loop), and exit after a
/// short idle period, so programs that never pipeline pay nothing.
struct Executor {
    queue: Mutex<VecDeque<Job>>,
    arrivals: Condvar,
    idle: AtomicUsize,
    workers: AtomicUsize,
}

type Job = Box<dyn FnOnce() + Send>;

const MAX_WORKERS: usize = 32;
const IDLE_EXIT: Duration = Duration::from_millis(100);

fn executor() -> &'static Executor {
    static EXECUTOR: OnceLock<Executor> = OnceLock::new();
    EXECUTOR.get_or_init(|| Executor {
        queue: Mutex::new(VecDeque::new()),
        arrivals: Condvar::new(),
        idle: AtomicUsize::new(0),
        workers: AtomicUsize::new(0),
    })
}

fn spawn_job(job: Job) {
    let ex = executor();
    ex.queue
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .push_back(job);
    if ex.idle.load(Ordering::Relaxed) > 0 {
        ex.arrivals.notify_one();
        return;
    }
    let workers = ex.workers.load(Ordering::Relaxed);
    if workers < MAX_WORKERS
        && ex
            .workers
            .compare_exchange(workers, workers + 1, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
    {
        if std::thread::Builder::new()
            .name("pipeline-worker".into())
            .spawn(move || worker_loop(ex))
            .is_err()
        {
            // Could not get a thread: run whatever is queued inline rather
            // than stranding the promise.
            ex.workers.fetch_sub(1, Ordering::Relaxed);
            while let Some(job) = ex
                .queue
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .pop_front()
            {
                job();
            }
        }
    } else {
        ex.arrivals.notify_one();
    }
}

fn worker_loop(ex: &'static Executor) {
    loop {
        let job = {
            let mut queue = ex.queue.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                ex.idle.fetch_add(1, Ordering::Relaxed);
                let (relocked, timeout) = ex
                    .arrivals
                    .wait_timeout(queue, IDLE_EXIT)
                    .unwrap_or_else(|p| p.into_inner());
                queue = relocked;
                ex.idle.fetch_sub(1, Ordering::Relaxed);
                if timeout.timed_out() && queue.is_empty() {
                    break None;
                }
            }
        };
        match job {
            Some(job) => job(),
            None => {
                ex.workers.fetch_sub(1, Ordering::Relaxed);
                return;
            }
        }
    }
}
