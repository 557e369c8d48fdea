"""Step-wise routed mixture-of-agents orchestration.

A recurrent router selects a sparse, adaptively sized subset of agents at
each reasoning step. The router trains itself from the agents' predictive
entropy through a pairwise ranking loss, supports dense training, sparse
inference with summarizer termination, and test-time adaptation.
"""

from .core import AgentResponse, AgentSpec, ConfigError, Prompt, RouterConfig, \
    StepRecord, STEP_LIMIT, SUMMARIZER, Trajectory, derive_seed, new_trajectory, \
    read_trace, trajectory_from_json, trajectory_to_json, validate_config, \
    write_trace
from .embed import HashEmbedder, RemoteEmbedder, RemoteEmbedError, hash_embed, \
    remote_embed
from .router import RouterParams, adaptive_k, backward_trajectory, \
    forward_trajectory, init_params, init_state, keep_top_k, load_params, \
    reduce_gradients, route_step, save_params
from .learning import AdamWHyper, OptimizerState, adamw_step, clip_gradients, \
    confidence, get_loss, init_optimizer, listmle_loss, mse_loss, \
    predictive_entropy, ranking_loss, total_loss, triplet_loss
from .agents import ChatPoolBackend, ChatSummarizer, Final, CONTINUE, \
    MockPoolBackend, MockProfile, MockSummarizer, ToolError, TOOLS, \
    TransportError, assemble_prompt, calculator_tool, chat_execute, \
    mock_execute, parse_summarizer_reply, summarize_final, summarizer_decide
from .orchestrator import OrchestrationError, Runtime, TrainingSettings, \
    TrainReport, infer, test_time_train, train
from .gradcheck import gradient_check

__version__ = "0.1.0"
